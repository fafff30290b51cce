"""Shell transfer integrals, the tensor/remainder decomposition, and the
trisum / Riccati diagnostics.

Sign and contraction conventions: the gradient tensor is (grad v)_{ij} =
d_i v_j, the trace pairing of a symmetric tensor T against it is
sum_{ij} T_ij d_i v_j, and the per-shell transfer is
int Tr[(u o u)_q . grad u_q] dx, which closes the exact balance
d/dt ||u_q||_2^2 = -2 nu ||grad u_q||_2^2 + 2 transfer_q
for the dealiased dynamics.

Trajectory rows and flux reports share one evaluation, :func:`_evaluate`, so
the Riccati sides, the trisums and the flux sum each have one formula; the
Lemma-1 sums behind the trisums and the report rows are :func:`_lemma1_terms`.
One shell-field generator, :func:`_shell_fields`, builds the grid values of
each u_q once; the L4 norms and the report's remainders both read them.

Six-component tensors are built one component at a time.  A report holds one,
the product tensor (u o u)^, and takes each shell's remainder norm inside its
:func:`remainder` call one component at a time, so no remainder tensor is held.
The norm is reduced in one working set (:func:`_remainder_l2`).  u_q vanishes
outside its support cube |k_i| < 2^(q+1), and two pruned transforms use that:
u_q's values on its own grid, n points or 2^(q+3) < n, come from the cube
wherever 2^(q+3) is at most that grid's size (:func:`_shell_values`, the same
bits as the full inverse on that grid), and a coarse shell, 2^(q+3) < n,
transforms only the cube's modes of its cross terms and takes the rest of the
norm by Parseval (:func:`_cube_sums`, equal to 1e-13 relative to the
full-spectrum norm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import ConfigurationError, ShellRangeError
from .lp import FilterBank, phi_profile, shell_energies, truncate_low
from .spectral import (BOX_VOLUME, SpectralVelocity, _cube_extent, _cut, _hat, _l4_norm, _lattice,
                       _lattice_sum, _physical, is_dealiased)

#: Upper-triangle index pairs of a symmetric 3x3 tensor and their multiplicity
#: in full double contractions.
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SYM_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])

#: Floor applied to denominators of relative residuals.
EPS_FLOOR = 1e-14

#: Fraction of a field's own transfer scale E sqrt(enstrophy) that floors the
#: denominator of a transfer residual.
RESIDUAL_FLOOR = 1e-6

#: Shells above q interacting with u_q (x) u_q: products of two modes from the
#: open annulus (2^(q-1), 2^(q+1)) reach |k| < 2^(q+2), i.e. up to shell q+2.
LOW_PASS_SHIFT = 2


def _require_dealiased(u):
    if not is_dealiased(u):
        raise ConfigurationError(
            "field carries modes above the dealias cutoff; quadratic products would alias"
        )


def _check_viscosity(nu):
    if not (math.isfinite(nu) and nu > 0):
        raise ConfigurationError(f"viscosity must be finite and positive, got {nu}")


def _products(phys):
    """The pointwise products u_i u_j of grid values, upper-triangle components,
    built one at a time."""
    return (phys[i] * phys[j] for i, j in SYM_PAIRS)


def product_tensor_hat(u: SpectralVelocity, phys=None) -> np.ndarray:
    """Coefficients of the pointwise tensor u_i u_j, upper-triangle components.

    Each product is transformed on its own and written into the result, so no
    six-component physical tensor is held."""
    hats = _product_hats(_physical(u.coeffs) if phys is None else phys)
    out = np.empty((len(SYM_PAIRS), *u.coeffs.shape[1:]), dtype=complex)
    for m in range(len(SYM_PAIRS)):
        out[m] = next(hats)  # a for loop over hats would hold the previous one
    return out


def _contract_k(components, k, out=None) -> np.ndarray:
    """k_j T_ij for a symmetric spectral tensor T whose upper-triangle components
    arrive one at a time in SYM_PAIRS order: the divergence d_j T_ij without its
    factor i.  k holds the three lattice axes the components live on.  Each row
    is summed as k_x T_i0 + k_y T_i1 + k_z T_i2, and no component is held once
    the next one is taken."""
    for (i, j), w in zip(SYM_PAIRS, components):
        if out is None:
            out = np.empty((3, *w.shape), dtype=w.dtype)
        for a, b in ((i, j),) if i == j else ((i, j), (j, i)):
            if b == 0:  # T_a0 is the first term of row a
                np.multiply(k[b], w, out=out[a])
            else:
                np.add(out[a], k[b] * w, out=out[a])
        del w
    return out


def _product_hats(phys):
    """The coefficients of each product u_i u_j, upper-triangle components,
    transformed one at a time; ``map`` holds no product once it is transformed."""
    return map(_hat, _products(phys))


def _inverse_from_cube(m, q) -> bool:
    """Whether u_q's grid values on m points are transformed from its support
    cube |k_i| < 2^(q+1), outside which phi_q vanishes, by
    :func:`lpns._fft.irfftn_cube`, with the bits of the full m-point inverse:
    2^(q+3) <= m, a cube of at most m/4 per axis.  Read on the shell's own grid,
    m = min(n, 2^(q+3)), it holds on every shell but the top ones, 2^(q+3) > n."""
    return 2 ** (q + 3) <= m


def _forward_to_cube(n, q) -> bool:
    """Whether r_q's norm transforms only its cross terms' modes in the support
    cube |k_i| < 2^(q+1), by :func:`lpns._fft.rfftn_cube`, and takes the rest by
    Parseval (:func:`_cube_sums`): 2^(q+3) < n, a cube of at most n/8 per axis.
    A shell with 2^(q+3) >= n keeps the full-spectrum norm bit for bit."""
    return 2 ** (q + 3) < n


def _cross_terms(phys, uq_phys, out):
    """Each component's cross term u_q,i u_j + u_i u_q,j in SYM_PAIRS order,
    written in turn into ``out``; beside it only the second product of an
    off-diagonal term is held.  A diagonal term is one product, doubled (x + x)."""
    for i, j in SYM_PAIRS:
        np.multiply(uq_phys[i], phys[j], out=out)
        out += out if i == j else phys[i] * uq_phys[j]
        yield out


def _spectrum_sums(phys, what, mult, uq_phys):
    """Per component, n^6 times ||r_m||_2^2 over the whole half spectrum: the
    squares of n^3 mult (u o u)^_m less the rfftn of its cross term.  ``mult``
    is scaled by n^3 in place.  One buffer of n^3 + 2 n^2 floats holds in turn
    a component's cross term (n^3 grid values), its n^3 mult (u o u)^_m (a half
    spectrum of complex values) and its density |c|^2 (a real half spectrum),
    so beside it only the rfftn result and, while an off-diagonal cross term is
    summed, its second product are held."""
    n = phys.shape[-1]
    mult *= float(n) ** 3
    shape = mult.shape
    buf = np.empty(2 * mult.size)
    target = buf.view(complex).reshape(shape)
    density = buf[: mult.size].reshape(shape)
    weight = _lattice(n)[4]
    sums = np.empty(len(SYM_PAIRS))
    for m, cross in enumerate(_cross_terms(phys, uq_phys, buf[: n**3].reshape(phys.shape[1:]))):
        c = _fft.rfftn(cross)
        np.subtract(np.multiply(mult, what[m], out=target), c, out=c)
        np.abs(c, out=density)
        del c
        density **= 2
        density *= weight
        sums[m] = BOX_VOLUME * np.sum(density, axis=(-3, -2, -1))  # as _lattice_sum sums
    return sums


def _cube_sums(phys, what, mult, uq_phys, q):
    """Per component, n^6 times ||r_m||_2^2 with only the support cube's modes
    |k_i| < r = 2^(q+1) transformed.  phi_q vanishes outside the cube, so there
    r_m is minus the cross term c_m, and its energy is c_m's total, n^3 sum_x
    cross_m^2 by discrete Parseval, less c_m's energy inside the cube.  That
    difference can cancel to round-off (a cross term wholly inside the cube);
    a negative one counts as 0.  Beside the cross term only its second product
    or its partial transform, n^2 r values, is held."""
    n = phys.shape[-1]
    scale = float(n) ** 3
    r = 2 ** (q + 1)
    extent = _cube_extent(r)
    cube_mult = _cut(mult, extent)
    cube_mult *= scale
    weight = _lattice(n)[4][..., :r]
    sums = np.empty(len(SYM_PAIRS))
    for m, cross in enumerate(_cross_terms(phys, uq_phys, np.empty(phys.shape[1:]))):
        c = _fft.rfftn_cube(cross, r=r)
        total = scale * float(np.einsum("ijk,ijk->", cross, cross))
        outside = total - float(np.sum(weight * np.abs(c) ** 2))
        inside = float(np.sum(weight * np.abs(cube_mult * _cut(what[m], extent) - c) ** 2))
        sums[m] = BOX_VOLUME * (inside + max(outside, 0.0))
    return sums


def _remainder_l2(phys, what, mult, uq_phys, q) -> float:
    """:func:`tensor_l2_norm` of r_q in one working set, one component at a time:
    bit for bit on a shell with 2^(q+3) >= n (:func:`_spectrum_sums`), and equal
    to 1e-13 relative on a coarse shell (:func:`_cube_sums`).

    Each component is compared unnormalised, n^3 mult (u o u)^_m against the
    rfftn of its cross terms, and the norm is divided by n^3 at the end; n^3 is
    a power of two, so every value is n^3 times its normalised one exactly."""
    n = phys.shape[-1]
    if _forward_to_cube(n, q):
        sums = _cube_sums(phys, what, mult, uq_phys, q)
    else:
        sums = _spectrum_sums(phys, what, mult, uq_phys)
    return math.sqrt(float(np.sum(SYM_WEIGHTS * sums))) / float(n) ** 3


def _shell_values(u: SpectralVelocity, bank: FilterBank, q, m):
    """u_q's grid values on m points, m = n or m = 2^(q+3) < n, one component at
    a time.  Where :func:`_inverse_from_cube` holds on m, the support cube is
    transformed by :func:`lpns._fft.irfftn_cube`, with phi_q gathered on the
    cube alone; elsewhere (a top shell, m = n) c * phi_q is inverted in full."""
    if not _inverse_from_cube(m, q):
        mult = bank.multiplier(q)
        return [_physical(c * mult) for c in u.coeffs]
    extent = _cube_extent(2 ** (q + 1))
    cube_mult = bank.phi[q - bank.q_min][_cut(u.grid.k_squared(), extent)]
    return [_fft.irfftn_cube(_cut(c, extent) * cube_mult, n=m) for c in u.coeffs]


def remainder(u: SpectralVelocity, bank: FilterBank, q: int, *, _phys=None, _what=None,
              _uq_phys=None, _l2=False):
    """Remainder tensor r_q(u, u) = (u o u)_q - u_q o u - u o u_q (spectral).

    ``_phys``, ``_what`` and ``_uq_phys`` are the caller's grid values of u, the
    coefficients of its product tensor and the n-point grid values of u_q (any
    sequence of three components); each is read, never written, and computed
    here when not given (u_q by :func:`_shell_values` at m = n).  The cross
    terms are :func:`_cross_terms`'s, transformed one component at a time, so
    no six-component physical tensor is held.  With ``_l2`` the result is
    :func:`tensor_l2_norm` of the tensor, reduced inside this call by
    :func:`_remainder_l2`: no six-component tensor is held at all.  It is that norm bit for bit on a shell with 2^(q+3) >= n,
    and equal to 1e-13 relative on a coarse shell."""
    bank.check_shell(q)
    _require_dealiased(u)
    phys = _physical(u.coeffs) if _phys is None else _phys
    what = product_tensor_hat(u, phys) if _what is None else _what
    mult = bank.multiplier(q)
    uq_phys = _shell_values(u, bank, q, u.grid.n) if _uq_phys is None else _uq_phys
    if _l2:
        return _remainder_l2(phys, what, mult, uq_phys, q)
    out = np.empty((len(SYM_PAIRS), *mult.shape), dtype=complex)
    for m, cross in enumerate(_cross_terms(phys, uq_phys, np.empty(phys.shape[1:]))):
        np.multiply(mult, what[m], out=out[m])
        out[m] -= _hat(cross)
    return out


def remainder_direct(u: SpectralVelocity, bank: FilterBank, q: int) -> np.ndarray:
    """Brute-force remainder via the lattice-translation kernel (O(n^6) oracle).

    Sums W(y) (u(x-y) - u(x)) o (u(x-y) - u(x)) over every lattice shift y,
    where W is the inverse transform of phi_q, built from ``phi_profile`` on the
    full lattice.  Independent of the multiplier rearrangement used by
    :func:`remainder` and of how the bank stores its multipliers.
    """
    bank.check_shell(q)
    n = u.grid.n
    phys = _physical(u.coeffs)
    k = np.fft.fftfreq(n, d=1.0 / n)
    kmag = np.sqrt(k[:, None, None] ** 2 + k[None, :, None] ** 2 + k[None, None, :] ** 2)
    kernel = _fft.ifftn(phi_profile(kmag, q)).real
    out = np.zeros((6, n, n, n))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                w = kernel[a, b, c]
                diff = np.roll(phys, (a, b, c), axis=(1, 2, 3)) - phys
                for m, (i, j) in enumerate(SYM_PAIRS):
                    out[m] += w * (diff[i] * diff[j])
    return _hat(out)


def tensor_l2_norm(tensor_hat) -> float:
    """Frobenius L2 norm of a symmetric spectral tensor field, stacked or as an
    iterable of its upper-triangle components, summed one component at a time;
    ``map`` holds no component once it is summed."""
    sums = np.array(list(map(lambda c: _lattice_sum(np.abs(c) ** 2), tensor_hat)))
    return math.sqrt(float(np.sum(SYM_WEIGHTS * sums)))


def _transfer_density(u: SpectralVelocity, what=None) -> np.ndarray:
    """Per-mode density whose phi_q^2-weighted lattice sum (times the box
    volume) is the transfer integral int Tr[(u o u)_q . grad u_q] dx.

    ``what`` is the product tensor, stacked or as an iterable of its six
    components; by default each product is transformed as it is contracted."""
    v = _contract_k(_product_hats(_physical(u.coeffs)) if what is None else what,
                    _lattice(u.grid.n)[:3])
    c = u.coeffs
    return (v[0] * np.conj(c[0]) + v[1] * np.conj(c[1]) + v[2] * np.conj(c[2])).imag


def shell_transfers(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """Transfer integrals int Tr[(u o u)_q . grad u_q] dx for every shell."""
    _require_dealiased(u)
    return bank.shell_sum(_transfer_density(u))


def shell_dissipations(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """Gradient norms ||grad u_q||_2^2 for every shell."""
    return bank.shell_sum(u.grid.k_squared() * np.sum(np.abs(u.coeffs) ** 2, axis=0))


def _sym_grad_hat(uq_coeffs, n):
    k = _lattice(n)[:3]
    return np.stack(
        [0.5j * (k[i] * uq_coeffs[j] + k[j] * uq_coeffs[i]) for i, j in SYM_PAIRS]
    )


def _tensor_pairing(a_hat, b_hat) -> float:
    """int sum_{ij} A_ij B_ij dx for symmetric spectral tensors."""
    return float(np.sum(SYM_WEIGHTS * _lattice_sum((a_hat * np.conj(b_hat)).real)))


def nlt_split(u: SpectralVelocity, bank: FilterBank, q: int, *, low_shift: int = LOW_PASS_SHIFT):
    """Split the shell transfer into its remainder and low-frequency parts.

    Returns (int r_q . grad u_q dx, -int u_q . grad u_{<=q+low_shift} . u_q dx).
    With the default low_shift the two parts sum to the transfer integral
    exactly; see LOW_PASS_SHIFT for the support argument fixing the cutoff.
    """
    _require_dealiased(u)
    bank.check_shell(q)
    n = u.grid.n
    phys = _physical(u.coeffs)
    what = product_tensor_hat(u, phys)
    mult = bank.multiplier(q)
    uq_phys = _shell_values(u, bank, q, n)  # read by both parts
    r_hat = remainder(u, bank, q, _phys=phys, _what=what, _uq_phys=uq_phys)
    integral_r = _tensor_pairing(r_hat, _sym_grad_hat(u.coeffs * mult, n))

    k = _lattice(n)[:3]
    low = truncate_low(u, bank, q + low_shift)
    acc = 0.0
    for i in range(3):
        for j in range(3):
            grad_ij = _physical(1j * k[i] * low.coeffs[j])
            acc += float(np.sum(uq_phys[i] * grad_ij * uq_phys[j]))
    integral_low = -acc * u.grid.dx**3
    return integral_r, integral_low


def _shell_fields(u: SpectralVelocity, bank: FilterBank):
    """Yield (q, M, values) for every shell: the grid values of u_q on
    M = min(n, 2^(q+3)) points, a list of three (M, M, M) components.

    phi_q vanishes for |k| >= 2^(q+1), so the M-point cube holds every mode of
    u_q, |u_q|^4 has no wavevector component above 2^(q+3) - 4, and on M points
    the grid sum of |u_q|^4 equals the n-point one.  Shells with 2^(q+3) <= n
    are exact; the top shells are the aliased n-point value, 1e-4 to 3e-3 from
    a zero-padded 2n grid on white noise at n = 16 to 64 (exact values need the
    3/2 rule, Orszag 1971).

    The values are :func:`_shell_values`'s on M points: the support cube's
    transform on every shell but the top ones, 2^(q+3) > n, each component on
    its own.  The generator holds no shell's values once it resumes, so a
    caller that drops its own reference before asking for the next shell holds
    one shell at a time.
    """
    for q in bank.shells:
        m = min(u.grid.n, 2 ** (q + 3))
        values = _shell_values(u, bank, q, m)
        yield q, m, values
        del values


def _shell_l4_norms(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """||u_q||_4 for every shell, on the grids of :func:`_shell_fields`."""
    out = np.empty(bank.n_shells)
    for q, m, values in _shell_fields(u, bank):
        out[q - bank.q_min] = _l4_norm(values, m)
        del values  # before the next shell is cut
    return out


def _shell_norm_table(u: SpectralVelocity, bank: FilterBank):
    """Per-shell (||u_q||_2, ||u_q||_4): L2 spectrally, L4 by grid quadrature."""
    return np.sqrt(shell_energies(u, bank)), _shell_l4_norms(u, bank)


def _lemma1_terms(l2, l4, lams) -> np.ndarray:
    """The three sums bounding each shell transfer, rows (rhs1, rhs2, rhs3):
    rhs1_q = lam_q^-1 ||u_q||_2 sum_{p<=q} lam_p^2 ||u_p||_4^2,
    rhs2_q = lam_q ||u_q||_2 sum_{p>q} ||u_p||_4^2,
    rhs3_q = ||u_q||_2^2 sum_{p<=q+1} lam_p^(5/2) ||u_p||_2."""
    low4 = np.cumsum(lams**2 * l4**2)
    high4 = np.append(np.cumsum((l4**2)[::-1])[::-1][1:], 0.0)
    low2 = np.cumsum(lams**2.5 * l2)
    low2 = np.append(low2[1:], low2[-1])
    return np.array((l2 / lams * low4, lams * l2 * high4, l2**2 * low2))


def lemma1_sides(u: SpectralVelocity, bank: FilterBank) -> np.ndarray:
    """Rows (lhs, rhs1, rhs2, rhs3) over every shell: the transfer integral
    and the three sums of :func:`_lemma1_terms` bounding it."""
    l2, l4 = _shell_norm_table(u, bank)
    return np.vstack((shell_transfers(u, bank), _lemma1_terms(l2, l4, bank.lambdas())))


def _check_exponent_and_viscosity(s, nu):
    if not 0.5 < s < 2.5:
        raise ShellRangeError(f"exponent s must lie in (1/2, 5/2), got {s}")
    _check_viscosity(nu)


@dataclass(frozen=True)
class TriSums:
    """The three double sums bounding the nonlinear contribution."""

    s: float
    nu: float
    A: float
    B: float
    C: float


def _trisums(s, nu, lams, terms) -> TriSums:
    """A, B, C = sum_q lam_q^(2s) (rhs1_q, rhs2_q, rhs3_q) of a Lemma-1 table."""
    return TriSums(s, nu, *(float(x) for x in terms @ lams ** (2 * s)))


def _riccati_exponent(s):
    return (2.0 * s + 1.0) / (2.0 * s - 1.0)


@dataclass(frozen=True)
class RiccatiSides:
    """Both sides of the shell-sum differential inequality at exponent s."""

    s: float
    lhs: float
    rhs: float
    y: float


def _riccati(s, nu, lams, energies, dissipations, transfers) -> RiccatiSides:
    weights = lams ** (2.0 * s)
    lhs = float(np.sum(weights * (-2.0 * nu * dissipations + 2.0 * transfers)))
    y = float(np.sum(weights * energies))
    rhs = float(np.sum((weights * energies) ** _riccati_exponent(s)))
    return RiccatiSides(s, lhs, rhs, y)


def riccati_sides(u: SpectralVelocity, bank: FilterBank, s: float, nu: float) -> RiccatiSides:
    """Instantaneous d/dt of y = sum_q lam_q^(2s) ||u_q||_2^2 and the
    comparison sum sum_q (lam_q^(2s) ||u_q||_2^2)^((2s+1)/(2s-1))."""
    _check_exponent_and_viscosity(s, nu)
    _require_dealiased(u)
    return _riccati(s, nu, bank.lambdas(), shell_energies(u, bank),
                    shell_dissipations(u, bank), shell_transfers(u, bank))


def _relative_residual(error, scale, energy, enstrophy) -> float:
    """|error| / scale for a transfer identity, with scale floored at
    RESIDUAL_FLOOR * E sqrt(enstrophy).  A field whose transfers all vanish
    (every triad collinear) has only round-off as its scale; the floor measures
    that round-off against the field itself.  The zero field gives 0."""
    floor = RESIDUAL_FLOOR * energy * math.sqrt(enstrophy)
    return abs(error) / max(scale, floor, EPS_FLOOR)


def _flux_sums(singles):
    return float(np.sum(singles)), float(np.sum(np.abs(singles)))


def total_flux(u: SpectralVelocity, bank: FilterBank):
    """Telescoped total transfer sum_q int Tr[(u o u) . grad u_q] dx and the
    absolute scale sum_q |...| of its per-shell terms.

    The single-projection pieces telescope through the partition of unity to
    int Tr[(u o u) . grad u] dx, which vanishes for solenoidal fields."""
    return _flux_sums(bank.shell_sum(_transfer_density(u), squared=False))


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
    energy: float      # int |u|^2 dx
    enstrophy: float   # int |grad u|^2 dx


def _evaluate(u: SpectralVelocity, bank: FilterBank, s: float, nu: float, *, rows=False) -> FluxReport:
    """Shell diagnostics of one field, each shell sum and the L2/L4 table once; per-shell
    rows only with ``rows``.  The caller checks s, nu and that u is dealiased.

    A trajectory row takes the L4 norms first, so their transforms meet no other
    array.  A report takes them in its one pass over :func:`_shell_fields`, which
    also gives each remainder its u_q where the shell grid is the n-point one."""
    l4 = np.empty(bank.n_shells) if rows else _shell_l4_norms(u, bank)
    phys = _physical(u.coeffs)
    if rows:  # the rows' remainders need phys and the stacked tensor
        what = product_tensor_hat(u, phys)
        e_density = np.sum(np.abs(u.coeffs) ** 2, axis=0)
        d_density = u.grid.k_squared() * e_density
        t_density = _transfer_density(u, what)
    else:  # a trajectory row streams the tensor and holds no density beside it
        t_density = _transfer_density(u, _product_hats(phys))
        del phys
        e_density = np.sum(np.abs(u.coeffs) ** 2, axis=0)
        d_density = u.grid.k_squared() * e_density
    energies = bank.shell_sum(e_density)
    dissipations = bank.shell_sum(d_density)
    transfers = bank.shell_sum(t_density)
    flux_sum, flux_scale = _flux_sums(bank.shell_sum(t_density, squared=False))
    energy = float(_lattice_sum(e_density))
    enstrophy = float(_lattice_sum(d_density))
    del e_density, d_density, t_density  # not held through the rows below
    remainder_l2 = []
    for q, m, values in _shell_fields(u, bank) if rows else ():
        l4[q - bank.q_min] = _l4_norm(values, m)
        uq_phys = values if m == u.grid.n else None
        remainder_l2.append(remainder(u, bank, q, _phys=phys, _what=what, _uq_phys=uq_phys, _l2=True))
        del values, uq_phys  # before the next shell is cut
    lams = bank.lambdas()
    terms = _lemma1_terms(np.sqrt(energies), l4, lams)
    shell_rows = []
    for i, q in enumerate(bank.shells if rows else ()):
        shell_rows.append(
            ShellFluxRow(
                q=q,
                transfer=float(transfers[i]),
                dissipation_exact=2.0 * nu * float(dissipations[i]),
                dissipation_surrogate=nu * lams[i] ** (2 * s + 2) * float(energies[i]),
                remainder_l2=remainder_l2[i],
                lemma1_lhs=float(transfers[i]),
                lemma1_rhs_terms=tuple(terms[:, i].tolist()),
            )
        )
    return FluxReport(
        rows=tuple(shell_rows),
        trisums=_trisums(s, nu, lams, terms),
        riccati=_riccati(s, nu, lams, energies, dissipations, transfers),
        shell_energies=tuple(float(e) for e in energies),
        flux_sum=flux_sum,
        flux_abs_scale=flux_scale,
        flux_residual=_relative_residual(flux_sum, flux_scale, energy, enstrophy),
        energy=energy,
        enstrophy=enstrophy,
    )


def shell_flux_report(u: SpectralVelocity, bank: FilterBank, s: float, nu: float) -> FluxReport:
    """Per-shell rows, trisums, Riccati sides and the flux sum for one field."""
    _check_exponent_and_viscosity(s, nu)
    _require_dealiased(u)
    return _evaluate(u, bank, s, nu, rows=True)
