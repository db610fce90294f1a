"""Superconducting-circuit Hamiltonians and their noise properties.

The generic single-mode circuit Hamiltonian is

    H = 4 E_C (N - N_ext)^2 + E_L phi^2 / 2 - E_J cos(phi - phi_ext)

with all energies in GHz (E/h).  Island circuits (E_L = 0) are
diagonalized in the charge basis, loop circuits (E_L > 0) on a phase
grid with a second-order central finite-difference kinetic term and
Dirichlet boundaries.  Spectra are reported ground-referenced in GHz.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .qcore import Operator, _as_matrix

DEFAULT_NCUT = 30
DEFAULT_EXTENT = 8 * np.pi
DEFAULT_NPOINTS = 2048


class SweetSpotNotFound(ValueError):
    """Raised when the frequency derivative does not change sign in the bracket."""


@dataclass(frozen=True)
class CircuitParams:
    """Energies in GHz; ``n_ext`` is the charge offset, ``phi_ext`` is in radians."""

    e_j: float
    e_c: float
    e_l: float = 0.0
    n_ext: float = 0.0
    phi_ext: float = 0.0

    def __post_init__(self):
        if self.e_j < 0:
            raise ValueError("E_J must be >= 0")
        if self.e_c <= 0:
            raise ValueError("E_C must be > 0")
        if self.e_l < 0:
            raise ValueError("E_L must be >= 0")

    @property
    def is_island(self) -> bool:
        return self.e_l == 0.0


@dataclass(frozen=True)
class SquidParams:
    e_j1: float
    e_j2: float
    phi_ext: float = 0.0

    def __post_init__(self):
        if self.e_j1 < 0 or self.e_j2 < 0:
            raise ValueError("junction energies must be >= 0")


@dataclass(frozen=True)
class SpectrumResult:
    """Ground-referenced levels (GHz), the 0-1 frequency, and the anharmonicity."""

    levels: np.ndarray
    omega_q: float
    anharmonicity: float
    eigenvectors: np.ndarray | None = None

    def __post_init__(self):
        lv = np.asarray(self.levels, dtype=float)
        object.__setattr__(self, "levels", lv)
        if abs(lv[0]) > 1e-12:
            raise ValueError("levels must be ground-referenced (levels[0] = 0)")
        if np.any(np.diff(lv) <= 0):
            raise ValueError("levels must be strictly sorted")


@dataclass(frozen=True)
class NoiseSpec:
    """One noise channel: tag in {'charge', 'flux', 'ej'}, magnitude, exponent.

    ``magnitude`` is A_lambda of the power-law spectral model
    S(w_q) ~ A^2 (2*pi*1Hz / w_q)^mu; its absolute scale must be calibrated
    externally (the model fixes only the frequency dependence).
    mu ~ +1 is 1/f-like, mu ~ -1 is Ohmic.
    """

    channel: str
    magnitude: float
    exponent: float = 1.0

    def __post_init__(self):
        if self.channel not in ("charge", "flux", "ej"):
            raise ValueError(f"unknown noise channel {self.channel!r}")
        if self.magnitude < 0:
            raise ValueError("noise magnitude must be >= 0")


@dataclass(frozen=True)
class RelaxationRates:
    """1/T1 = Gamma_par; 1/T2 = Gamma_par/2 + Gamma_phi.  Rates in 1/ns."""

    gamma_par: float
    gamma_phi: float

    @property
    def t1(self) -> float:
        return np.inf if self.gamma_par == 0 else 1.0 / self.gamma_par

    @property
    def t2(self) -> float:
        # 2 / (Gamma_par + 2 Gamma_phi), not 1 / (Gamma_par / 2 + Gamma_phi):
        # halving a subnormal Gamma_par drops bits and can put T2 above 2 T1
        total = self.gamma_par + 2 * self.gamma_phi
        return np.inf if total == 0 else 2.0 / total


# ---------------------------------------------------------------------------
# DC SQUID
# ---------------------------------------------------------------------------

def squid_effective_ej(p: SquidParams) -> float:
    """E_J,eff = sqrt(E_J1^2 + E_J2^2 + 2 E_J1 E_J2 cos(phi_ext))."""
    return float(
        np.sqrt(p.e_j1**2 + p.e_j2**2 + 2 * p.e_j1 * p.e_j2 * np.cos(p.phi_ext))
    )


def squid_inductance(p: SquidParams) -> float:
    """Effective inductance scale 1/E_J,eff (dimensionless; the (Phi0/2pi)^2
    prefactor is left to the caller).

    For a symmetric SQUID this is 1/(2 E_J |cos(phi_ext/2)|), which diverges
    at phi_ext = pi.
    """
    ej_eff = squid_effective_ej(p)
    if ej_eff < 1e-12 * max(p.e_j1 + p.e_j2, 1.0):
        raise ZeroDivisionError(
            "effective Josephson energy vanishes (symmetric SQUID at phi_ext = pi): "
            "inductance is infinite"
        )
    return 1.0 / ej_eff


# ---------------------------------------------------------------------------
# Charge-basis operators (island circuits)
# ---------------------------------------------------------------------------

def charge_operator(ncut: int) -> np.ndarray:
    return np.diag(np.arange(-ncut, ncut + 1, dtype=float)).astype(complex)


def cos_phase_operator(ncut: int) -> np.ndarray:
    """cos(phi) as symmetric charge hopping: (|N+1><N| + |N><N+1|)/2."""
    dim = 2 * ncut + 1
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m[i, i + 1] = 0.5
        m[i + 1, i] = 0.5
    return m


def sin_phase_operator(ncut: int) -> np.ndarray:
    """sin(phi) = (e^{i phi} - e^{-i phi}) / 2i in the charge basis."""
    dim = 2 * ncut + 1
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        m[i + 1, i] = 1.0 / 2j     # e^{+i phi}: |N+1><N|
        m[i, i + 1] = -1.0 / 2j
    return m


def island_hamiltonian(p: CircuitParams, ncut: int = DEFAULT_NCUT) -> Operator:
    """Charge-basis Hamiltonian of an island circuit (E_L = 0), in GHz.

    Diagonal 4 E_C (N - N_ext)^2 plus the Josephson term -E_J cos(phi)
    as -E_J/2 hopping on the first off-diagonals.  Phase offsets on an
    island are absorbed into N_ext, so phi_ext plays no role here.
    """
    if not p.is_island:
        raise ValueError("island_hamiltonian requires E_L = 0")
    if ncut < 5:
        raise ValueError("ncut must be >= 5")
    n = np.arange(-ncut, ncut + 1, dtype=float)
    h = np.diag(4 * p.e_c * (n - p.n_ext) ** 2).astype(complex)
    h -= p.e_j * cos_phase_operator(ncut)
    return Operator(h, hermitian=True)


# ---------------------------------------------------------------------------
# Phase-grid operators (loop circuits)
# ---------------------------------------------------------------------------

def _phase_grid(extent: float, npoints: int) -> np.ndarray:
    # interior points of [-extent, extent]; Dirichlet walls live on the
    # excluded endpoints
    return np.linspace(-extent, extent, npoints + 2)[1:-1]


def _loop_tridiagonal(p: CircuitParams, extent: float, npoints: int):
    phi = _phase_grid(extent, npoints)
    h = phi[1] - phi[0]
    kin = 4.0 * p.e_c / h**2
    pot = 0.5 * p.e_l * phi**2 - p.e_j * np.cos(phi - p.phi_ext)
    diag = 2.0 * kin + pot
    off = np.full(npoints - 1, -kin)
    return diag, off, phi


def loop_hamiltonian(
    p: CircuitParams,
    extent: float = DEFAULT_EXTENT,
    npoints: int = DEFAULT_NPOINTS,
) -> Operator:
    """Phase-grid Hamiltonian of a loop circuit (E_L > 0), in GHz.

    Kinetic term 4 E_C N^2 with N = -i d/dphi discretized by second-order
    central differences; potential E_L phi^2/2 - E_J cos(phi - phi_ext);
    Dirichlet boundaries at +-extent.
    """
    if p.e_l <= 0:
        raise ValueError("loop_hamiltonian requires E_L > 0")
    if npoints < 128:
        raise ValueError("npoints must be >= 128 to resolve the potential")
    diag, off, _ = _loop_tridiagonal(p, extent, npoints)
    h = np.diag(diag).astype(complex)
    idx = np.arange(npoints - 1)
    h[idx, idx + 1] = off
    h[idx + 1, idx] = off
    return Operator(h, hermitian=True)


def loop_spectrum(
    p: CircuitParams,
    nlevels: int = 5,
    extent: float = DEFAULT_EXTENT,
    npoints: int = DEFAULT_NPOINTS,
) -> SpectrumResult:
    """Lowest levels of a loop circuit via the tridiagonal eigensolver.

    Equivalent to ``spectrum(loop_hamiltonian(...))`` but scales to the
    fine grids needed for tight convergence checks.
    """
    if p.e_l <= 0:
        raise ValueError("loop_spectrum requires E_L > 0")
    if npoints < 128:
        raise ValueError("npoints must be >= 128 to resolve the potential")
    _check_levels(nlevels)
    from scipy.linalg import eigh_tridiagonal
    diag, off, _ = _loop_tridiagonal(p, extent, npoints)
    evals, vecs = eigh_tridiagonal(diag, off, select="i", select_range=(0, nlevels - 1))
    return _spectrum_from_eigen(evals, vecs, nlevels)


def _check_levels(nlevels: int) -> None:
    if nlevels < 2:
        raise ValueError(f"nlevels must be >= 2 to give omega_q, got {nlevels}")


def _spectrum_from_eigen(evals, vecs, nlevels) -> SpectrumResult:
    _check_levels(nlevels)
    levels = evals[:nlevels] - evals[0]
    omega_q = float(levels[1])
    alpha = float(levels[2] - 2 * levels[1]) if nlevels >= 3 else float("nan")
    return SpectrumResult(levels, omega_q, alpha, eigenvectors=vecs[:, :nlevels])


def spectrum(h, nlevels: int = 5) -> SpectrumResult:
    """Ground-referenced spectrum of a Hermitian Hamiltonian in GHz."""
    m = _as_matrix(h)
    if np.max(np.abs(m - m.conj().T)) > 1e-9:
        raise ValueError("spectrum requires a Hermitian matrix")
    if nlevels > m.shape[0]:
        raise ValueError(f"nlevels = {nlevels} exceeds dimension {m.shape[0]}")
    evals, vecs = np.linalg.eigh(m)
    return _spectrum_from_eigen(evals, vecs, nlevels)


def circuit_spectrum(p: CircuitParams, nlevels: int = 5, ncut: int = DEFAULT_NCUT,
                     extent: float = DEFAULT_EXTENT,
                     npoints: int = DEFAULT_NPOINTS) -> SpectrumResult:
    """Dispatch to the island or loop diagonalization based on E_L."""
    if p.is_island:
        return spectrum(island_hamiltonian(p, ncut), nlevels)
    return loop_spectrum(p, nlevels, extent, npoints)


def charge_dispersion(p: CircuitParams, ncut: int = DEFAULT_NCUT) -> float:
    """Delta omega_q = omega_q(N_ext = 0) - omega_q(N_ext = 0.5), in GHz."""
    if not p.is_island:
        raise ValueError("charge dispersion is defined for island circuits")
    w0 = spectrum(island_hamiltonian(
        CircuitParams(p.e_j, p.e_c, 0.0, 0.0, 0.0), ncut), 3).omega_q
    w_half = spectrum(island_hamiltonian(
        CircuitParams(p.e_j, p.e_c, 0.0, 0.5, 0.0), ncut), 3).omega_q
    return w0 - w_half


# ---------------------------------------------------------------------------
# Noise susceptibilities and rates
# ---------------------------------------------------------------------------

def dipole_elements(
    p: CircuitParams,
    nlevels: int = 5,
    ncut: int = DEFAULT_NCUT,
    extent: float = DEFAULT_EXTENT,
    npoints: int = DEFAULT_NPOINTS,
) -> dict:
    """Matrix elements <i| X_lambda |j> in the energy eigenbasis (GHz).

    The susceptibilities are the derivatives of the circuit Hamiltonian:

        X_charge = 8 E_C N
        X_flux   = -E_J sin(phi - phi_ext)
        X_ej     = -E_J cos(phi - phi_ext)

    Returns a dict {'charge', 'flux', 'ej'} of nlevels x nlevels arrays.
    """
    if nlevels < 1:
        raise ValueError(f"nlevels must be >= 1, got {nlevels}")
    if p.is_island:
        # spectrum needs 2 levels for omega_q; a 1-level block is the slice
        v = spectrum(island_hamiltonian(p, ncut), max(nlevels, 2)).eigenvectors
        n_op = charge_operator(ncut)
        # phi offsets are absorbed into N_ext for islands; use phi_ext = 0
        sin_op = sin_phase_operator(ncut)
        cos_op = cos_phase_operator(ncut)
    else:
        from scipy.linalg import eigh_tridiagonal
        diag, off, phi = _loop_tridiagonal(p, extent, npoints)
        evals, v = eigh_tridiagonal(diag, off, select="i",
                                    select_range=(0, nlevels - 1))
        h = phi[1] - phi[0]
        npts = len(phi)
        n_op = np.zeros((npts, npts), dtype=complex)
        idx = np.arange(npts - 1)
        n_op[idx, idx + 1] = -1j / (2 * h)
        n_op[idx + 1, idx] = +1j / (2 * h)
        sin_op = np.diag(np.sin(phi - p.phi_ext)).astype(complex)
        cos_op = np.diag(np.cos(phi - p.phi_ext)).astype(complex)
    v = v[:, :nlevels]
    out = {
        "charge": v.conj().T @ (8 * p.e_c * n_op) @ v,
        "flux": v.conj().T @ (-p.e_j * sin_op) @ v,
        "ej": v.conj().T @ (-p.e_j * cos_op) @ v,
    }
    return out


def charge_matrix_element(p: CircuitParams, i: int = 0, j: int = 1,
                          ncut: int = DEFAULT_NCUT) -> complex:
    """<i| N |j> for an island circuit (the bare charge operator)."""
    v = spectrum(island_hamiltonian(p, ncut), max(i, j, 1) + 1).eigenvectors
    return complex(v[:, i].conj() @ charge_operator(ncut) @ v[:, j])


def noise_psd_factor(omega_q_ghz: float, mu: float) -> float:
    """|S(w_q) + S(-w_q)| / A^2 = (2*pi*1Hz / w_q)^mu.

    With w_q = 2*pi*f_q and f_q in GHz the 2*pi cancels, leaving
    (1e-9 / f_q)^mu.
    """
    if omega_q_ghz <= 0:
        raise ValueError("omega_q must be > 0")
    return float((1e-9 / omega_q_ghz) ** mu)


def thermalization_rate(dipoles: dict, noise: list[NoiseSpec],
                        omega_q: float) -> float:
    """Fermi-golden-rule decay rate Gamma_par in 1/ns.

    Gamma_par = sum_lambda |<1| X_lambda |0>|^2 |S(w_q) + S(-w_q)|
    with the matrix element converted to angular units (2*pi x GHz) and the
    power-law PSD model of :func:`noise_psd_factor`.  The absolute scale
    rests entirely on the calibrated magnitudes A_lambda.
    """
    rate = 0.0
    for spec in noise:
        x10 = dipoles[spec.channel][1, 0]
        el = 2 * np.pi * abs(x10)          # rad/ns
        rate += el**2 * spec.magnitude**2 * noise_psd_factor(omega_q, spec.exponent)
    return float(rate)


def central_difference(f, x0: float, delta: float) -> float:
    """Second-order central difference (f(x+d) - f(x-d)) / 2d."""
    return (f(x0 + delta) - f(x0 - delta)) / (2.0 * delta)


def find_derivative_zero(f, bracket: tuple[float, float], delta: float,
                         tol: float = 1e-8, max_iter: int = 200) -> float:
    """Bisection root of the central-difference derivative of f.

    Raises :class:`SweetSpotNotFound` when the derivative has the same sign
    at both bracket ends.
    """
    lo, hi = bracket
    g_lo = central_difference(f, lo, delta)
    g_hi = central_difference(f, hi, delta)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if np.sign(g_lo) == np.sign(g_hi):
        raise SweetSpotNotFound(
            f"derivative does not change sign over {bracket} "
            f"(values {g_lo:.3e}, {g_hi:.3e})"
        )
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        g_mid = central_difference(f, mid, delta)
        if hi - lo < tol or g_mid == 0.0:
            return mid
        if np.sign(g_mid) == np.sign(g_lo):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    return 0.5 * (lo + hi)


_BIAS_FIELD = {"charge": "n_ext", "flux": "phi_ext", "ej": "e_j"}


def _bias_step(p: CircuitParams, channel: str) -> float:
    """Central-difference step for a bias channel: 1e-4 of its natural
    period (charge 1, flux 2 pi, E_J its own scale max(E_J, 1))."""
    if channel not in _BIAS_FIELD:
        raise ValueError(f"unknown bias channel {channel!r}")
    return 1e-4 * {"charge": 1.0, "flux": 2 * np.pi, "ej": max(p.e_j, 1.0)}[channel]


def _omega_q_vs_bias(p: CircuitParams, channel: str, value: float,
                     ncut: int, extent: float, npoints: int) -> float:
    q = replace(p, **{_BIAS_FIELD[channel]: value})
    return circuit_spectrum(q, 3, ncut, extent, npoints).omega_q


def frequency_derivative(p: CircuitParams, channel: str,
                         ncut: int = DEFAULT_NCUT, extent: float = DEFAULT_EXTENT,
                         npoints: int = DEFAULT_NPOINTS) -> float:
    """Central-difference d(omega_q)/d(lambda) in GHz per bias unit, for
    ``channel`` 'charge' (n_ext), 'flux' (phi_ext) or 'ej' (E_J)."""
    delta = _bias_step(p, channel)
    return central_difference(
        lambda v: _omega_q_vs_bias(p, channel, v, ncut, extent, npoints),
        getattr(p, _BIAS_FIELD[channel]), delta,
    )


def dephasing_rate(p: CircuitParams, noise: NoiseSpec,
                   ncut: int = DEFAULT_NCUT, extent: float = DEFAULT_EXTENT,
                   npoints: int = DEFAULT_NPOINTS) -> float:
    """Order-of-magnitude dephasing estimate Gamma_phi ~ A |d omega_q / d lambda|.

    The derivative is converted to angular units, so Gamma_phi is in 1/ns
    when A_lambda is calibrated accordingly.  This is an estimate, not an
    exact rate: the underlying relation is a proportionality.
    """
    d = frequency_derivative(p, noise.channel, ncut, extent, npoints)
    return float(noise.magnitude * abs(2 * np.pi * d))


def sweet_spot(p: CircuitParams, channel: str, bracket: tuple[float, float],
               tol: float = 1e-6, ncut: int = DEFAULT_NCUT,
               extent: float = DEFAULT_EXTENT,
               npoints: int = DEFAULT_NPOINTS) -> float:
    """Bias value where d(omega_q)/d(lambda), as a central difference with
    :func:`frequency_derivative`'s step, crosses zero, by bisection."""
    return find_derivative_zero(
        lambda v: _omega_q_vs_bias(p, channel, v, ncut, extent, npoints),
        bracket, _bias_step(p, channel), tol=tol,
    )


def relaxation_rates(gamma_par: float, gamma_phi: float) -> RelaxationRates:
    if gamma_par < 0 or gamma_phi < 0:
        raise ValueError("rates must be >= 0")
    return RelaxationRates(gamma_par, gamma_phi)
