"""Closed-form lower-bound evaluators, the saturated Riccati ODE, and rate
fitting for measured norm series.

Every evaluator takes the absolute constant c as an input: only the rates are
pinned down; the constants are free parameters of the bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, FitError, ShellRangeError

LOG_KINDS = frozenset({"cmp_h32_log", "cmp_h52_log"})

BOUND_KINDS = frozenset(
    {
        "leray_h1",
        "lp",
        "giga_hs",
        "rss_high_s",
        "cmp_h32_log",
        "cmp_h52_log",
        "main_h32",
        "general_s_rate",
    }
)


@dataclass(frozen=True)
class BoundSpec:
    """One lower-bound formula instance: kind, constant, blow-up time, parameters."""

    kind: str
    c: float
    t_star: float
    s: float | None = None
    p: float | None = None
    u0_l2: float | None = None

    def __post_init__(self):
        if self.kind not in BOUND_KINDS:
            raise ConfigurationError(f"unknown bound kind {self.kind!r}")
        if not (math.isfinite(self.c) and self.c > 0):
            raise ConfigurationError(f"constant c must be finite and positive, got {self.c}")
        if not (math.isfinite(self.t_star) and self.t_star > 0):
            raise ConfigurationError(f"blow-up time must be positive, got {self.t_star}")
        if self.kind == "lp":
            if self.p is None or not 3.0 < self.p < math.inf:
                raise ConfigurationError("kind 'lp' needs an exponent p in (3, inf)")
        elif self.kind in ("giga_hs", "general_s_rate"):
            if self.s is None or not 0.5 < self.s < 2.5:
                raise ConfigurationError(f"kind {self.kind!r} needs s in (1/2, 5/2)")
        elif self.kind == "rss_high_s":
            if self.s is None or self.s <= 2.5:
                raise ConfigurationError("kind 'rss_high_s' needs s > 5/2")
            if self.u0_l2 is None or self.u0_l2 <= 0:
                raise ConfigurationError("kind 'rss_high_s' needs the initial L2 norm")


def eval_lower_bound(spec: BoundSpec, t: float) -> float:
    """Evaluate the lower bound at time t in [0, t_star)."""
    if not 0.0 <= t < spec.t_star:
        raise DomainError(f"time {t} outside [0, {spec.t_star})")
    tau = spec.t_star - t
    if spec.kind in LOG_KINDS and tau >= 1.0:
        raise DomainError(
            f"logarithmic bound defined only for t_star - t < 1, got {tau}"
        )
    if spec.kind == "leray_h1":
        return spec.c / tau**0.25
    if spec.kind == "lp":
        return spec.c / tau ** ((spec.p - 3.0) / (2.0 * spec.p))
    if spec.kind in ("giga_hs", "general_s_rate"):
        return spec.c / tau ** ((2.0 * spec.s - 1.0) / 4.0)
    if spec.kind == "rss_high_s":
        return spec.c * spec.u0_l2 ** ((5.0 - 2.0 * spec.s) / 5.0) / tau ** (2.0 * spec.s / 5.0)
    if spec.kind == "cmp_h32_log":
        return spec.c / math.sqrt(tau * abs(math.log(tau)))
    if spec.kind == "cmp_h52_log":
        return spec.c / (tau * abs(math.log(tau)))
    return spec.c / math.sqrt(tau)  # main_h32


@dataclass(frozen=True)
class RiccatiSolution:
    """Saturated solution of dy/dt = coef * y^2 from y(0) = y0."""

    y0: float
    coef: float

    @property
    def blowup_time(self) -> float:
        return 1.0 / (self.coef * self.y0)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        if np.any(t >= self.blowup_time):
            raise DomainError(f"solution only exists for t < {self.blowup_time}")
        out = self.y0 / (1.0 - self.coef * self.y0 * t)
        return float(out) if out.ndim == 0 else out


def riccati_solve(y0: float, coef: float) -> RiccatiSolution:
    """Closed-form blow-up solution y(t) = y0 / (1 - coef*y0*t)."""
    for name, value in (("y0", y0), ("coef", coef)):
        if not (math.isfinite(value) and value > 0):
            raise DomainError(f"{name} must be finite and positive, got {value}")
    return RiccatiSolution(y0, coef)


@dataclass(frozen=True)
class NormSeries:
    """Sampled squared-norm history (t_i, y_i) with strictly increasing times."""

    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64)
        if t.ndim != 1 or t.shape != y.shape:
            raise ConfigurationError("series needs matching 1-d time and value arrays")
        if t.size and np.any(np.diff(t) <= 0):
            raise ConfigurationError("sample times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise ConfigurationError("series samples must be finite")
        if np.any(y < 0):
            raise ConfigurationError("squared norms cannot be negative")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    def __len__(self):
        return self.t.size


def blowup_floor(series: NormSeries, c_emp: float) -> float:
    """Earliest admissible blow-up time max_i (t_i + c_emp / y_i).

    A sample with y = 0 contributes +inf: no finite-time blow-up is implied.
    """
    if len(series) == 0:
        raise ShellRangeError("series is empty")
    if not (math.isfinite(c_emp) and c_emp > 0):
        raise DomainError(f"empirical constant must be finite and positive, got {c_emp}")
    with np.errstate(divide="ignore"):
        candidates = series.t + c_emp / series.y
    return float(np.max(candidates))


def fit_rate(series: NormSeries, t_star: float):
    """Least-squares fit of y ~ c / (t_star - t)^alpha in log-log coordinates.

    Returns (alpha, c_fit): the slope of log y against -log(t_star - t) and
    the exponential of the intercept.
    """
    if len(series) < 5:
        raise ShellRangeError("need at least 5 samples to fit a rate")
    if np.any(series.t >= t_star):
        raise DomainError("all samples must precede the trial blow-up time")
    if np.any(series.y <= 0):
        raise DomainError("rate fit requires strictly positive values")
    x = -np.log(t_star - series.t)
    if np.ptp(x) < 1e-12:
        raise FitError("degenerate time spread; cannot fit a rate")
    alpha, intercept = np.polyfit(x, np.log(series.y), 1)
    return float(alpha), float(math.exp(intercept))
