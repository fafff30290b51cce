import math

import numpy as np
import pytest

from lpns.bounds import (
    BoundSpec,
    NormSeries,
    blowup_floor,
    eval_lower_bound,
    fit_rate,
    riccati_solve,
)
from lpns.errors import ConfigurationError, DomainError, FitError, ShellRangeError


class TestBoundSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            BoundSpec("unknown", 1.0, 1.0)

    def test_positive_constant_and_time(self):
        with pytest.raises(ConfigurationError):
            BoundSpec("main_h32", 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            BoundSpec("main_h32", 1.0, -1.0)

    def test_kind_parameter_mismatch(self):
        with pytest.raises(ConfigurationError):
            BoundSpec("lp", 1.0, 1.0)                 # missing p
        with pytest.raises(ConfigurationError):
            BoundSpec("lp", 1.0, 1.0, p=3.0)          # p must exceed 3
        with pytest.raises(ConfigurationError):
            BoundSpec("giga_hs", 1.0, 1.0)            # missing s
        with pytest.raises(ConfigurationError):
            BoundSpec("giga_hs", 1.0, 1.0, s=2.5)     # boundary excluded
        with pytest.raises(ConfigurationError):
            BoundSpec("rss_high_s", 1.0, 1.0, s=3.0)  # missing ||u0||_2
        with pytest.raises(ConfigurationError):
            BoundSpec("rss_high_s", 1.0, 1.0, s=2.0, u0_l2=1.0)  # s must exceed 5/2


class TestEvalLowerBound:
    def test_main_spot_check(self):
        """c = 1, T* = 1, t = 0.75 -> 1 / sqrt(0.25) = 2."""
        spec = BoundSpec("main_h32", 1.0, 1.0)
        assert eval_lower_bound(spec, 0.75) == pytest.approx(2.0, rel=1e-15)

    def test_leray_spot_check(self):
        spec = BoundSpec("leray_h1", 1.0, 1.0)
        assert eval_lower_bound(spec, 1.0 - 1.0 / 16.0) == pytest.approx(2.0, rel=1e-15)

    def test_log_h32_spot_check(self):
        """T* - t = 1/e -> 1 / sqrt(e^-1 * 1) = sqrt(e)."""
        spec = BoundSpec("cmp_h32_log", 1.0, 2.0)
        t = 2.0 - math.exp(-1.0)
        assert eval_lower_bound(spec, t) == pytest.approx(math.sqrt(math.e), rel=1e-12)

    def test_log_h52_spot_check(self):
        spec = BoundSpec("cmp_h52_log", 1.0, 2.0)
        t = 2.0 - math.exp(-1.0)
        assert eval_lower_bound(spec, t) == pytest.approx(math.e, rel=1e-12)

    def test_lp_exponent(self):
        spec = BoundSpec("lp", 1.0, 1.0, p=6.0)
        assert eval_lower_bound(spec, 0.75) == pytest.approx(0.25 ** (-0.25), rel=1e-12)

    def test_rss_formula(self):
        spec = BoundSpec("rss_high_s", 2.0, 1.0, s=3.0, u0_l2=4.0)
        tau = 0.5
        expected = 2.0 * 4.0 ** (-1.0 / 5.0) / tau ** (6.0 / 5.0)
        assert eval_lower_bound(spec, 0.5) == pytest.approx(expected, rel=1e-12)

    def test_giga_coincides_with_main_at_three_halves(self):
        """The s = 3/2 rate closes the catalog: identical formulas."""
        giga = BoundSpec("giga_hs", 0.7, 2.0, s=1.5)
        main = BoundSpec("main_h32", 0.7, 2.0)
        for t in np.linspace(0.0, 1.99, 40):
            assert eval_lower_bound(giga, t) == eval_lower_bound(main, t)

    def test_general_rate_matches_giga(self):
        a = BoundSpec("general_s_rate", 1.0, 1.0, s=2.0)
        b = BoundSpec("giga_hs", 1.0, 1.0, s=2.0)
        for t in (0.0, 0.3, 0.9):
            assert eval_lower_bound(a, t) == eval_lower_bound(b, t)

    def test_domain_errors(self):
        spec = BoundSpec("main_h32", 1.0, 1.0)
        with pytest.raises(DomainError):
            eval_lower_bound(spec, 1.0)
        with pytest.raises(DomainError):
            eval_lower_bound(spec, -0.1)

    def test_log_kinds_rejected_outside_unit_window(self):
        spec = BoundSpec("cmp_h32_log", 1.0, 3.0)
        with pytest.raises(DomainError):
            eval_lower_bound(spec, 2.0)   # tau = 1: log vanishes
        with pytest.raises(DomainError):
            eval_lower_bound(spec, 0.5)   # tau = 2.5 > 1
        assert eval_lower_bound(spec, 2.5) > 0

    @pytest.mark.parametrize(
        "spec",
        [
            BoundSpec("main_h32", 1.0, 1.0),
            BoundSpec("leray_h1", 1.0, 1.0),
            BoundSpec("lp", 1.0, 1.0, p=5.0),
            BoundSpec("giga_hs", 1.0, 1.0, s=2.0),
            BoundSpec("rss_high_s", 1.0, 1.0, s=3.0, u0_l2=2.0),
            BoundSpec("cmp_h32_log", 1.0, 1.0),
            BoundSpec("cmp_h52_log", 1.0, 1.0),
        ],
    )
    def test_monotone_near_blowup(self, spec):
        """Every kind is non-decreasing once T* - t < min(1, 1/e)."""
        taus = np.linspace(min(1.0, math.exp(-1.0)) - 1e-6, 1e-4, 50)
        values = [eval_lower_bound(spec, spec.t_star - tau) for tau in taus]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_linear_in_constant(self):
        for kind, extra in [("main_h32", {}), ("giga_hs", {"s": 1.0}), ("lp", {"p": 4.0})]:
            v1 = eval_lower_bound(BoundSpec(kind, 1.0, 1.0, **extra), 0.5)
            v3 = eval_lower_bound(BoundSpec(kind, 3.0, 1.0, **extra), 0.5)
            assert v3 == pytest.approx(3.0 * v1, rel=1e-14)


class TestRiccatiSolve:
    def test_closed_form(self):
        sol = riccati_solve(1.0, 1.0)
        assert sol.blowup_time == 1.0
        assert sol(0.5) == pytest.approx(2.0, rel=1e-15)

    def test_blowup_time_scaling(self):
        assert riccati_solve(2.0, 0.5).blowup_time == 1.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            riccati_solve(0.0, 1.0)
        with pytest.raises(DomainError):
            riccati_solve(1.0, -1.0)
        for y0, coef, name in ((math.nan, 1.0, "y0"), (1.0, math.nan, "coef"),
                               (math.inf, 1.0, "y0"), (1.0, math.inf, "coef")):
            with pytest.raises(DomainError, match=name):
                riccati_solve(y0, coef)
        with pytest.raises(DomainError):
            riccati_solve(1.0, 1.0)(1.0)

    def test_matches_rk4_integration(self):
        """Independent RK4 on dy/dt = coef y^2 tracks the closed form to 1e-8.

        The step shrinks with 1/y so the march never crosses the singularity.
        """
        y0, coef = 1.0, 1.0
        sol = riccati_solve(y0, coef)
        f = lambda v: coef * v * v
        y, t = y0, 0.0
        while y < 1e6:
            dt = 3e-4 / (coef * y)
            k1 = f(y)
            k2 = f(y + 0.5 * dt * k1)
            k3 = f(y + 0.5 * dt * k2)
            k4 = f(y + dt * k3)
            y += dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += dt
            assert y == pytest.approx(sol(t), rel=1e-8)
        assert y >= 1e6

    def test_satisfies_its_ode(self):
        """Centered differences of y match coef * y^2 away from blow-up."""
        sol = riccati_solve(2.0, 0.25)
        h = 1e-6
        for t in np.linspace(0.0, 0.8 * sol.blowup_time, 20):
            if t - h < 0:
                continue
            fd = (sol(t + h) - sol(t - h)) / (2 * h)
            assert fd == pytest.approx(0.25 * sol(t) ** 2, rel=1e-8)


class TestNormSeries:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            NormSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(ConfigurationError):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0, -2.0]))
        with pytest.raises(ConfigurationError):
            NormSeries(np.array([0.0, 1.0]), np.array([1.0, math.nan]))


class TestBlowupFloor:
    def test_exact_riccati_series(self):
        """y = 1/(1-t): every sample pins t + (1-t) = 1 exactly."""
        t = np.linspace(0.0, 0.9, 50)
        series = NormSeries(t, 1.0 / (1.0 - t))
        assert blowup_floor(series, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_constant_series(self):
        t = np.linspace(0.0, 2.0, 21)
        series = NormSeries(t, np.full_like(t, 4.0))
        assert blowup_floor(series, 1.0) == pytest.approx(2.25, abs=1e-15)

    def test_zero_sample_gives_unbounded_floor(self):
        series = NormSeries(np.array([0.0, 1.0]), np.array([0.0, 2.0]))
        assert blowup_floor(series, 1.0) == math.inf

    def test_recovers_generated_blowup_time(self):
        sol = riccati_solve(3.0, 0.7)
        t = np.linspace(0.0, 0.95 * sol.blowup_time, 200)
        series = NormSeries(t, sol(t))
        floor = blowup_floor(series, 1.0 / 0.7)
        assert floor == pytest.approx(sol.blowup_time, abs=1e-12)

    def test_empty_series(self):
        series = NormSeries(np.array([]), np.array([]))
        with pytest.raises(ShellRangeError):
            blowup_floor(series, 1.0)

    def test_bad_constant(self):
        series = NormSeries(np.array([0.0]), np.array([1.0]))
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="empirical constant"):
                blowup_floor(series, bad)


class TestFitRate:
    def test_exact_power_law_alpha_one(self):
        t = np.linspace(0.0, 0.9, 40)
        series = NormSeries(t, 1.0 / (1.0 - t))
        alpha, c_fit = fit_rate(series, 1.0)
        assert alpha == pytest.approx(1.0, abs=1e-10)
        assert c_fit == pytest.approx(1.0, abs=1e-10)

    def test_exact_power_law_alpha_half(self):
        t = np.linspace(0.0, 0.9, 40)
        series = NormSeries(t, (1.0 - t) ** -0.5)
        alpha, _ = fit_rate(series, 1.0)
        assert alpha == pytest.approx(0.5, abs=1e-10)

    def test_noisy_power_law(self):
        """1 percent multiplicative noise moves the slope by well under 0.05."""
        rng = np.random.default_rng(12)
        t = np.linspace(0.0, 0.95, 120)
        y = (1.0 - t) ** -1.0 * np.exp(rng.normal(0.0, 0.01, t.size))
        alpha, _ = fit_rate(NormSeries(t, y), 1.0)
        assert alpha == pytest.approx(1.0, abs=0.05)

    def test_too_few_samples(self):
        t = np.linspace(0.0, 0.5, 4)
        with pytest.raises(ShellRangeError):
            fit_rate(NormSeries(t, 1.0 / (1.0 - t)), 1.0)

    def test_samples_beyond_t_star(self):
        t = np.linspace(0.0, 1.5, 10)
        with pytest.raises(DomainError):
            fit_rate(NormSeries(t, np.ones_like(t)), 1.0)

    def test_degenerate_spread(self):
        t = np.linspace(0.0, 1e-14, 6)
        with pytest.raises((FitError, ConfigurationError)):
            fit_rate(NormSeries(t, np.ones_like(t)), 1.0)
