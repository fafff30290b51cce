"""Shell transfer integrals, the tensor/remainder decomposition, and the
trisum / Riccati diagnostics.

Sign and contraction conventions: the gradient tensor is (grad v)_{ij} =
d_i v_j, the trace pairing of a symmetric tensor T against it is
sum_{ij} T_ij d_i v_j, and the per-shell transfer is
int Tr[(u o u)_q . grad u_q] dx, which closes the exact balance
d/dt ||u_q||_2^2 = -2 nu ||grad u_q||_2^2 + 2 transfer_q
for the dealiased dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import ConfigurationError, ShellRangeError, UndefinedRatioError
from .lp import FilterBank, shell_energies, truncate_low
from .spectral import BOX_VOLUME, SpectralVelocity, _lattice, is_dealiased

#: Upper-triangle index pairs of a symmetric 3x3 tensor and their multiplicity
#: in full double contractions.
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SYM_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])

#: Floor applied to denominators of relative residuals.
EPS_FLOOR = 1e-14

#: Shells above q interacting with u_q (x) u_q: products of two modes from the
#: open annulus (2^(q-1), 2^(q+1)) reach |k| < 2^(q+2), i.e. up to shell q+2.
LOW_PASS_SHIFT = 2


def _require_dealiased(u):
    if not is_dealiased(u):
        raise ConfigurationError(
            "field carries modes above the dealias cutoff; quadratic products would alias"
        )


def _check_shell(bank, q):
    if q < bank.q_min or q > bank.q_max:
        raise ShellRangeError(f"shell {q} outside [{bank.q_min}, {bank.q_max}]")


def _physical(coeffs, n):
    return _fft.ifftn(coeffs, axes=(-3, -2, -1)).real * n**3


def _hat(values, n):
    return _fft.fftn(values, axes=(-3, -2, -1)) / n**3


def product_tensor_hat(u: SpectralVelocity, phys=None) -> np.ndarray:
    """Coefficients of the pointwise tensor u_i u_j, upper-triangle components."""
    n = u.grid.n
    if phys is None:
        phys = _physical(u.coeffs, n)
    prods = np.stack([phys[i] * phys[j] for i, j in SYM_PAIRS])
    return _hat(prods, n)


def tensor_shell(u: SpectralVelocity, bank: FilterBank, q: int) -> np.ndarray:
    """(u o u)_q: the phi_q-projection of the quadratic tensor field."""
    _require_dealiased(u)
    _check_shell(bank, q)
    return bank.multiplier(q) * product_tensor_hat(u)


def remainder(u: SpectralVelocity, bank: FilterBank, q: int, *, _phys=None, _what=None) -> np.ndarray:
    """Remainder tensor r_q(u, u) = (u o u)_q - u_q o u - u o u_q (spectral)."""
    if q < 0:
        raise ShellRangeError("remainder defined for shells q >= 0")
    _check_shell(bank, q)
    _require_dealiased(u)
    n = u.grid.n
    phys = _physical(u.coeffs, n) if _phys is None else _phys
    what = product_tensor_hat(u, phys) if _what is None else _what
    mult = bank.multiplier(q)
    uq_phys = _physical(u.coeffs * mult, n)
    cross = np.stack(
        [uq_phys[i] * phys[j] + phys[i] * uq_phys[j] for i, j in SYM_PAIRS]
    )
    return mult * what - _hat(cross, n)


def remainder_direct(u: SpectralVelocity, bank: FilterBank, q: int) -> np.ndarray:
    """Brute-force remainder via the lattice-translation kernel (O(n^6) oracle).

    Sums W(y) (u(x-y) - u(x)) o (u(x-y) - u(x)) over every lattice shift y,
    where W is the inverse transform of phi_q.  Independent of the multiplier
    rearrangement used by :func:`remainder`.
    """
    if q < 0:
        raise ShellRangeError("remainder defined for shells q >= 0")
    _check_shell(bank, q)
    n = u.grid.n
    phys = _physical(u.coeffs, n)
    kernel = _fft.ifftn(bank.multiplier(q)).real
    out = np.zeros((6, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                w = kernel[a, b, c]
                diff = np.roll(phys, (a, b, c), axis=(1, 2, 3)) - phys
                for m, (i, j) in enumerate(SYM_PAIRS):
                    out[m] += w * (diff[i] * diff[j])
    return _hat(out, n)


def tensor_l2_norm(tensor_hat) -> float:
    """Frobenius L2 norm of a symmetric spectral tensor field."""
    comp = np.sum(np.abs(tensor_hat) ** 2, axis=(-3, -2, -1))
    return math.sqrt(BOX_VOLUME * float(np.sum(SYM_WEIGHTS * comp)))


def _transfer_density(u: SpectralVelocity, what=None, phys=None) -> np.ndarray:
    """Per-mode density whose phi_q^2-weighted lattice sum (times the box
    volume) is the transfer integral int Tr[(u o u)_q . grad u_q] dx."""
    n = u.grid.n
    kx, ky, kz, _, _ = _lattice(n)
    if what is None:
        what = product_tensor_hat(u, phys)
    v0 = kx * what[0] + ky * what[1] + kz * what[2]
    v1 = kx * what[1] + ky * what[3] + kz * what[4]
    v2 = kx * what[2] + ky * what[4] + kz * what[5]
    c = u.coeffs
    return (v0 * np.conj(c[0]) + v1 * np.conj(c[1]) + v2 * np.conj(c[2])).imag


def shell_transfers(u: SpectralVelocity, bank: FilterBank, *, _density=None) -> np.ndarray:
    """Transfer integrals int Tr[(u o u)_q . grad u_q] dx for every shell."""
    _require_dealiased(u)
    return bank.shell_sum(_transfer_density(u) if _density is None else _density)


def transfer(u: SpectralVelocity, bank: FilterBank, q: int) -> float:
    _check_shell(bank, q)
    return float(shell_transfers(u, bank)[q - bank.q_min])


def shell_dissipations(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """Gradient norms ||grad u_q||_2^2 for every shell."""
    return bank.shell_sum(u.grid.k_squared() * np.sum(np.abs(u.coeffs) ** 2, axis=0))


def _sym_grad_hat(uq_coeffs, n):
    kx, ky, kz, _, _ = _lattice(n)
    k = (kx, ky, kz)
    return np.stack(
        [0.5j * (k[i] * uq_coeffs[j] + k[j] * uq_coeffs[i]) for i, j in SYM_PAIRS]
    )


def _tensor_pairing(a_hat, b_hat) -> float:
    """int sum_{ij} A_ij B_ij dx for symmetric spectral tensors."""
    comp = np.sum(a_hat * np.conj(b_hat), axis=(-3, -2, -1)).real
    return BOX_VOLUME * float(np.sum(SYM_WEIGHTS * comp))


def nlt_split(u: SpectralVelocity, bank: FilterBank, q: int, *, low_shift: int = LOW_PASS_SHIFT):
    """Split the shell transfer into its remainder and low-frequency parts.

    Returns (int r_q . grad u_q dx, -int u_q . grad u_{<=q+low_shift} . u_q dx).
    With the default low_shift the two parts sum to the transfer integral
    exactly; see LOW_PASS_SHIFT for the support argument fixing the cutoff.
    """
    _require_dealiased(u)
    _check_shell(bank, q)
    if q < 0:
        raise ShellRangeError("split defined for shells q >= 0")
    n = u.grid.n
    phys = _physical(u.coeffs, n)
    what = product_tensor_hat(u, phys)
    uq_coeffs = u.coeffs * bank.multiplier(q)
    r_hat = remainder(u, bank, q, _phys=phys, _what=what)
    integral_r = _tensor_pairing(r_hat, _sym_grad_hat(uq_coeffs, n))

    kx, ky, kz, _, _ = _lattice(n)
    k = (kx, ky, kz)
    low = truncate_low(u, bank, q + low_shift)
    uq_phys = _physical(uq_coeffs, n)
    acc = 0.0
    for i in range(3):
        for j in range(3):
            grad_ij = _physical(1j * k[i] * low.coeffs[j], n)
            acc += float(np.sum(uq_phys[i] * grad_ij * uq_phys[j]))
    integral_low = -acc * u.grid.dx**3
    return integral_r, integral_low


def _shell_l4_norms(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """||u_q||_4 for every shell; transforms batched in memory-bounded chunks."""
    n = u.grid.n
    out = np.empty(bank.n_shells)
    chunk = max(1, int(6.4e7 / (3 * n**3 * 16)))
    for start in range(0, bank.n_shells, chunk):
        block = bank.phi[start : start + chunk][:, bank.k2]
        phys = _physical(block[:, None] * u.coeffs[None], n)
        mag2 = np.sum(phys**2, axis=1)
        out[start : start + block.shape[0]] = (
            np.sum(mag2**2, axis=(1, 2, 3)) * u.grid.dx**3
        ) ** 0.25
    return out


def _shell_norm_table(u: SpectralVelocity, bank: FilterBank):
    """Per-shell (||u_q||_2, ||u_q||_4): L2 spectrally, L4 by grid quadrature."""
    return np.sqrt(shell_energies(u, bank)), _shell_l4_norms(u, bank)


def lemma1_sides(u: SpectralVelocity, bank: FilterBank, q: int, *, _table=None, _transfers=None):
    """The transfer integral and the three sums bounding it.

    Returns (lhs, rhs1, rhs2, rhs3) where lhs is the shell transfer and
    rhs1 = lam_q^-1 ||u_q||_2 sum_{p<=q} lam_p^2 ||u_p||_4^2,
    rhs2 = lam_q ||u_q||_2 sum_{p>q} ||u_p||_4^2,
    rhs3 = ||u_q||_2^2 sum_{p<=q+1} lam_p^(5/2) ||u_p||_2.
    """
    _check_shell(bank, q)
    l2, l4 = _shell_norm_table(u, bank) if _table is None else _table
    transfers = shell_transfers(u, bank) if _transfers is None else _transfers
    lams = bank.lambdas()
    i = q - bank.q_min
    rhs1 = l2[i] / lams[i] * float(np.sum(lams[: i + 1] ** 2 * l4[: i + 1] ** 2))
    rhs2 = lams[i] * l2[i] * float(np.sum(l4[i + 1 :] ** 2))
    hi = min(i + 2, bank.n_shells)
    rhs3 = l2[i] ** 2 * float(np.sum(lams[:hi] ** 2.5 * l2[:hi]))
    return float(transfers[i]), rhs1, rhs2, rhs3


def _check_exponent(s):
    if not 0.5 < s < 2.5:
        raise ShellRangeError(f"exponent s must lie in (1/2, 5/2), got {s}")


@dataclass(frozen=True)
class TriSums:
    """The three double sums bounding the nonlinear contribution."""

    s: float
    nu: float
    A: float
    B: float
    C: float


def abc_sums(u: SpectralVelocity, bank: FilterBank, s: float, nu: float, *, _table=None) -> TriSums:
    """Evaluate the trisums A, B, C over all representable shells."""
    _check_exponent(s)
    if nu <= 0:
        raise ConfigurationError(f"viscosity must be positive, got {nu}")
    l2, l4 = _shell_norm_table(u, bank) if _table is None else _table
    lams = bank.lambdas()
    low_cum = np.cumsum(lams**2 * l4**2)
    a = float(np.sum(lams ** (2 * s - 1) * l2 * low_cum))
    high_tail = np.cumsum((l4**2)[::-1])[::-1]
    tail = np.append(high_tail[1:], 0.0)
    b = float(np.sum(lams ** (2 * s + 1) * l2 * tail))
    low_cum1 = np.cumsum(lams**2.5 * l2)
    shifted = np.append(low_cum1[1:], low_cum1[-1])
    c = float(np.sum(lams ** (2 * s) * l2**2 * shifted))
    return TriSums(s, nu, a, b, c)


def _riccati_exponent(s):
    return (2.0 * s + 1.0) / (2.0 * s - 1.0)


def _abc_denominator(energies, lams, s, nu):
    ex = _riccati_exponent(s)
    return nu * float(np.sum((energies * lams ** (2 * s) / nu) ** ex)) + nu / 3.0 * float(
        np.sum(lams ** (2 * s + 2) * energies)
    )


def estimate_abc_constants(ensemble, bank: FilterBank, s: float, nu: float):
    """Empirical constants (K_A, K_B, K_C): worst ratio of each trisum to the
    dissipation-plus-square comparison sum over the ensemble."""
    _check_exponent(s)
    if nu <= 0:
        raise ConfigurationError(f"viscosity must be positive, got {nu}")
    best = [-math.inf, -math.inf, -math.inf]
    usable = 0
    for u in ensemble:
        energies = shell_energies(u, bank)
        denom = _abc_denominator(energies, bank.lambdas(), s, nu)
        if denom <= 0.0:
            continue
        usable += 1
        tri = abc_sums(u, bank, s, nu)
        for i, val in enumerate((tri.A, tri.B, tri.C)):
            best[i] = max(best[i], val / denom)
    if usable == 0:
        raise UndefinedRatioError("ensemble contains no field with positive comparison sum")
    return tuple(best)


@dataclass(frozen=True)
class RiccatiSides:
    """Both sides of the shell-sum differential inequality at exponent s."""

    s: float
    lhs: float
    rhs: float
    y: float


def riccati_sides(u: SpectralVelocity, bank: FilterBank, s: float, nu: float, *, _density=None) -> RiccatiSides:
    """Instantaneous d/dt of y = sum_q lam_q^(2s) ||u_q||_2^2 and the
    comparison sum sum_q (lam_q^(2s) ||u_q||_2^2)^((2s+1)/(2s-1))."""
    _check_exponent(s)
    if nu <= 0:
        raise ConfigurationError(f"viscosity must be positive, got {nu}")
    _require_dealiased(u)
    lams = bank.lambdas()
    weights = lams ** (2.0 * s)
    energies = shell_energies(u, bank)
    transfers = shell_transfers(u, bank, _density=_density)
    dissipations = shell_dissipations(u, bank)
    lhs = float(np.sum(weights * (-2.0 * nu * dissipations + 2.0 * transfers)))
    y = float(np.sum(weights * energies))
    rhs = float(np.sum((weights * energies) ** _riccati_exponent(s)))
    return RiccatiSides(s, lhs, rhs, y)


@dataclass(frozen=True)
class ShellFluxRow:
    """Per-shell transfer, dissipation, remainder norm and bound sides."""

    q: int
    transfer: float
    dissipation_exact: float       # 2 nu ||grad u_q||_2^2
    dissipation_surrogate: float   # nu lam_q^(2s+2) ||u_q||_2^2
    remainder_l2: float
    lemma1_lhs: float
    lemma1_rhs_terms: tuple


@dataclass(frozen=True)
class FluxReport:
    """Everything the shell diagnostics produce for one field."""

    rows: tuple
    trisums: TriSums
    riccati: RiccatiSides
    shell_energies: tuple
    flux_sum: float
    flux_abs_scale: float
    flux_residual: float


def total_flux(u: SpectralVelocity, bank: FilterBank, *, _density=None):
    """Telescoped total transfer sum_q int Tr[(u o u) . grad u_q] dx and the
    absolute scale sum_q |...| of its per-shell terms.

    The single-projection pieces telescope through the partition of unity to
    int Tr[(u o u) . grad u] dx, which vanishes for solenoidal fields."""
    density = _transfer_density(u) if _density is None else _density
    singles = bank.shell_sum(density, squared=False)
    return float(np.sum(singles)), float(np.sum(np.abs(singles)))


def shell_flux_report(u: SpectralVelocity, bank: FilterBank, s: float, nu: float) -> FluxReport:
    """Aggregate per-shell rows, trisums, and Riccati sides for one field."""
    _check_exponent(s)
    if nu <= 0:
        raise ConfigurationError(f"viscosity must be positive, got {nu}")
    _require_dealiased(u)
    n = u.grid.n
    phys = _physical(u.coeffs, n)
    what = product_tensor_hat(u, phys)
    density = _transfer_density(u, what=what)
    energies = shell_energies(u, bank)
    transfers = shell_transfers(u, bank, _density=density)
    dissipations = shell_dissipations(u, bank)
    table = _shell_norm_table(u, bank)
    lams = bank.lambdas()
    rows = []
    for q in bank.shells:
        i = q - bank.q_min
        r_hat = remainder(u, bank, q, _phys=phys, _what=what)
        sides = lemma1_sides(u, bank, q, _table=table, _transfers=transfers)
        rows.append(
            ShellFluxRow(
                q=q,
                transfer=float(transfers[i]),
                dissipation_exact=2.0 * nu * float(dissipations[i]),
                dissipation_surrogate=nu * lams[i] ** (2 * s + 2) * float(energies[i]),
                remainder_l2=tensor_l2_norm(r_hat),
                lemma1_lhs=sides[0],
                lemma1_rhs_terms=sides[1:],
            )
        )
    trisums = abc_sums(u, bank, s, nu, _table=table)
    riccati = riccati_sides(u, bank, s, nu, _density=density)
    flux_sum, flux_scale = total_flux(u, bank, _density=density)
    residual = abs(flux_sum) / max(flux_scale, EPS_FLOOR)
    return FluxReport(
        rows=tuple(rows),
        trisums=trisums,
        riccati=riccati,
        shell_energies=tuple(float(e) for e in energies),
        flux_sum=flux_sum,
        flux_abs_scale=flux_scale,
        flux_residual=residual,
    )
