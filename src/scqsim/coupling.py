"""Coupled systems: Jaynes-Cummings, dispersive quantities, qubit-qubit
coupling, the transmon Kerr mapping, and two coupled classical oscillators.

Hamiltonians built here are energy matrices in GHz with the ground state at
zero (number-operator form).  That differs from the sigma_z/2 spin form only
by a multiple of the identity, which shifts every level equally and is
invisible to any transition frequency or propagator comparison made in this
package.  Tensor ordering is qubit (first factor) x resonator.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .qcore import SIGMA_MINUS, Operator, _as_matrix, annihilation, number_op, tensor

DISPERSIVE_RATIO = 10.0


class DispersiveLimitError(ValueError):
    """Raised when a dispersive-limit formula is used outside its regime."""


@dataclass(frozen=True)
class JCParams:
    """Qubit-resonator system: frequencies and rates in GHz.

    kappa is the resonator linewidth, n_max the Fock-space truncation (the
    resonator keeps n_max + 1 levels).
    """

    omega_q: float
    omega_r: float
    g: float
    kappa: float = 0.0
    n_max: int = 10

    def __post_init__(self):
        if self.g < 0 or self.kappa < 0:
            raise ValueError("g, kappa must be >= 0")
        if self.n_max < 2:
            raise ValueError("n_max must be >= 2")

    @property
    def detuning(self) -> float:
        """Delta_qr = omega_r - omega_q."""
        return self.omega_r - self.omega_q

    @property
    def is_dispersive(self) -> bool:
        # inclusive: |Delta| = 10 g is the edge of validity, not outside it
        return abs(self.detuning) >= DISPERSIVE_RATIO * self.g


@dataclass(frozen=True)
class CapacitiveCouplingSpec:
    """Capacitance network for a direct qubit-qubit link: the coupling
    capacitance c_12 and the qubit capacitances c_q1, c_q2, in one
    (arbitrary) unit.
    """

    c_12: float
    c_q1: float
    c_q2: float

    def __post_init__(self):
        if min(self.c_q1, self.c_q2) <= 0 or self.c_12 < 0:
            raise ValueError("capacitances must be positive (c_12 >= 0)")


@dataclass(frozen=True)
class TwoQubitParams:
    """Two exchange-coupled qubits in GHz; the control qubit's anharmonicity
    alpha_1 only matters for the three-level CR model."""

    omega_q1: float
    omega_q2: float
    j: float
    alpha_1: float | None = None

    def __post_init__(self):
        if self.j < 0:
            raise ValueError("J must be >= 0")

    @property
    def delta_qq(self) -> float:
        return self.omega_q1 - self.omega_q2


@dataclass(frozen=True)
class DispersiveReport:
    chi: float
    n_crit: float
    snr_optimal_kappa: float
    kappa_is_snr_optimal: bool


# ---------------------------------------------------------------------------
# Jaynes-Cummings
# ---------------------------------------------------------------------------

def jc_hamiltonian(p: JCParams) -> Operator:
    """Jaynes-Cummings Hamiltonian on the 2*(n_max+1)-dim space, in GHz.

    H = omega_q n_q + omega_r a^dag a + g (q+ a + q- a^dag), where q+ = |1><0|
    raises the qubit.  Equal to the usual omega_q sigma_z/2 form up to an
    identity shift of -omega_q/2.
    """
    nr = p.n_max + 1
    a = annihilation(nr).entries
    nq = number_op(2).entries
    q_raise = SIGMA_MINUS.entries   # |1><0|
    h = (
        p.omega_q * tensor(nq, np.eye(nr)).entries
        + p.omega_r * tensor(np.eye(2), a.conj().T @ a).entries
        + p.g * (tensor(q_raise, a).entries + tensor(q_raise.conj().T, a.conj().T).entries)
    )
    return Operator(h, hermitian=True)


def jc_excitation_number(n_max: int) -> Operator:
    """Total excitation operator n_q + a^dag a (commutes with the JC H)."""
    nr = n_max + 1
    return Operator(
        tensor(number_op(2), np.eye(nr)).entries
        + tensor(np.eye(2), number_op(nr).entries).entries,
        hermitian=True,
    )


def vacuum_rabi_splitting(p: JCParams) -> float:
    """Splitting of the two lowest excited JC eigenvalues (GHz); 2g on resonance."""
    evals = np.linalg.eigvalsh(jc_hamiltonian(p).entries)
    return float(evals[2] - evals[1])


def dispersive_shift(p: JCParams) -> DispersiveReport:
    """chi = g^2 / Delta_qr and n_crit = Delta_qr / (4 g^2).

    Requires the dispersive limit |Delta_qr| > 10 g.  The report carries the
    SNR-optimal linewidth kappa = 2 chi and whether the supplied kappa sits
    within 5% of it.
    """
    if not p.is_dispersive:
        raise DispersiveLimitError(
            f"|Delta_qr| = {abs(p.detuning):.4g} is not > {DISPERSIVE_RATIO} g "
            f"= {DISPERSIVE_RATIO * p.g:.4g}"
        )
    chi = p.g**2 / p.detuning
    n_crit = p.detuning / (4 * p.g**2) if p.g > 0 else np.inf
    kappa_opt = 2 * abs(chi)
    is_opt = p.kappa > 0 and abs(p.kappa - kappa_opt) <= 0.05 * kappa_opt
    return DispersiveReport(float(chi), float(n_crit), float(kappa_opt), bool(is_opt))


def fock_headroom(rho, n_max: int) -> float:
    """Population of the top resonator Fock level of a qubit x resonator state.

    Readout-style simulations must keep this below 1e-6 or the truncation
    at n_max is eating real dynamics; raises ValueError beyond it.
    """
    m = _as_matrix(rho)
    nr = n_max + 1
    if m.shape[0] != 2 * nr:
        raise ValueError(f"expected a 2 x {nr} dim state, got dim {m.shape[0]}")
    pop = float(sum(m[q * nr + n_max, q * nr + n_max].real for q in (0, 1)))
    if pop >= 1e-6:
        raise ValueError(
            f"top Fock level holds {pop:.2e} >= 1e-06: "
            "increase n_max"
        )
    return pop


def dressed_qubit_shift(p: JCParams) -> float:
    """Exact dressed shift of the qubit-like transition relative to bare omega_q.

    Computed from the JC eigenvalues in the zero/one-excitation manifolds;
    approaches -chi ... well, magnitude chi with O(g^4/Delta^3) residual in
    the dispersive limit.
    """
    evals = np.linalg.eigvalsh(jc_hamiltonian(p).entries)
    pair = evals[1:3] - evals[0]
    # qubit-like branch: the one closer to the bare qubit frequency
    qubit_like = pair[np.argmin(np.abs(pair - p.omega_q))]
    return float(qubit_like - p.omega_q)


def chi_total(g: np.ndarray, levels: np.ndarray, omega_r: float, m_cutoff: int) -> float:
    """Total dispersive shift including higher qubit levels (GHz).

    ``g[i, j]`` are the coupling matrix elements between qubit levels i and j,
    ``levels`` the ground-referenced level energies.  Uses
    chi_ij = |g_ij|^2 / (omega_r - omega_{i-j}) with omega_{i-j} = E_i - E_j
    (negative when i < j), summed as
    sum_{j=0}^{M} [(chi_j1 - chi_1j) - (chi_j0 - chi_0j)] / 2.
    """
    g = np.asarray(g, dtype=complex)
    levels = np.asarray(levels, dtype=float)
    if m_cutoff >= len(levels) or g.shape[0] < m_cutoff + 1:
        raise ValueError("cutoff M exceeds the available levels")

    def chi_ij(i: int, j: int) -> float:
        if i == j:
            return 0.0
        denom = omega_r - (levels[i] - levels[j])
        if abs(denom) < 1e-12:
            raise ZeroDivisionError(
                f"omega_r is resonant with the {i}-{j} transition"
            )
        return abs(g[i, j]) ** 2 / denom

    total = 0.0
    for j in range(m_cutoff + 1):
        total += (chi_ij(j, 1) - chi_ij(1, j)) - (chi_ij(j, 0) - chi_ij(0, j))
    return float(total / 2)


# ---------------------------------------------------------------------------
# Qubit-qubit coupling
# ---------------------------------------------------------------------------

def qubit_qubit_j(spec: CapacitiveCouplingSpec, omega_q1: float,
                  omega_q2: float) -> float:
    """Exchange coupling J = (C12 / (2 sqrt(Cq1 Cq2))) sqrt(w1 w2), in GHz."""
    if spec.c_12 > 0.1 * min(spec.c_q1, spec.c_q2):
        warnings.warn(
            "C_12 exceeds 10% of the qubit capacitance; the perturbative "
            "coupling formula may be inaccurate",
            stacklevel=2,
        )
    return float(
        0.5 * spec.c_12 / np.sqrt(spec.c_q1 * spec.c_q2)
        * np.sqrt(omega_q1 * omega_q2)
    )


def two_qubit_hamiltonian(p: TwoQubitParams, rwa: bool = False) -> Operator:
    """Two-qubit exchange Hamiltonian in GHz (4-dim, qubit 1 most significant).

    Without the RWA the coupling is J sx sx; with it, J (s+ s- + s- s+).
    The RWA is never applied silently: the caller picks the form.
    """
    n = number_op(2).entries
    eye = np.eye(2)
    h = p.omega_q1 * tensor(n, eye).entries + p.omega_q2 * tensor(eye, n).entries
    raise_ = SIGMA_MINUS.entries
    lower = raise_.conj().T
    if rwa:
        h = h + p.j * (
            tensor(raise_, lower).entries + tensor(lower, raise_).entries
        )
    else:
        sx = raise_ + lower
        h = h + p.j * tensor(sx, sx).entries
    return Operator(h, hermitian=True)


def transmon_kerr_map(e_j: float, e_c: float) -> dict:
    """Perturbative transmon parameters from (E_J, E_C), both in GHz.

    omega_q = sqrt(8 E_J E_C) - E_C, Kerr coefficient K = -E_C, and the
    zero-point fluctuations N0^2 = sqrt(E_J / 32 E_C),
    phi0^2 = sqrt(2 E_C / E_J).  Warns below E_J/E_C = 20.
    """
    if e_j <= 0 or e_c <= 0:
        raise ValueError("E_J and E_C must be > 0")
    if e_j / e_c < 20:
        warnings.warn(
            f"E_J/E_C = {e_j / e_c:.1f} < 20: outside the transmon regime, "
            "the Kerr mapping is unreliable",
            stacklevel=2,
        )
    return {
        "omega_q": float(np.sqrt(8 * e_j * e_c) - e_c),
        "kerr": float(-e_c),
        "n_zpf": float((e_j / (32 * e_c)) ** 0.25),
        "phi_zpf": float((2 * e_c / e_j) ** 0.25),
    }


# ---------------------------------------------------------------------------
# Two coupled classical oscillators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassicalOscParams:
    """Two spring-block oscillators joined by a (possibly modulated) spring.

    Equations of motion:

        m1 x1'' = -(k1 + kappa(t)) x1 + kappa(t) x2 + a_d cos(2 pi f_d t)
        m2 x2'' = -(k2 + kappa(t)) x2 + kappa(t) x1

    with kappa(t) = kappa0 + kappa_m cos(2 pi f_m t).  All quantities are
    unitless; the defaults (m1 = 10/(2 pi)^2, m2 = 2.5/(2 pi)^2, k1 = 10,
    k2 = 40, kappa0 = 1) put the bare oscillators far off resonance.
    """

    m1: float = 10.0 / (2 * np.pi) ** 2
    m2: float = 2.5 / (2 * np.pi) ** 2
    k1: float = 10.0
    k2: float = 40.0
    kappa0: float = 1.0
    kappa_m: float = 0.0
    f_m: float = 0.0
    a_d: float = 0.0
    f_d: float = 0.0
    x0: tuple = (1.0, 0.0, 0.0, 0.0)   # (x1, v1, x2, v2)

    def __post_init__(self):
        if self.m1 <= 0 or self.m2 <= 0 or self.k1 <= 0 or self.k2 <= 0:
            raise ValueError("masses and spring constants must be > 0")

    @property
    def f1(self) -> float:
        return float(np.sqrt((self.k1 + self.kappa0) / self.m1) / (2 * np.pi))

    @property
    def f2(self) -> float:
        return float(np.sqrt((self.k2 + self.kappa0) / self.m2) / (2 * np.pi))

    @classmethod
    def resonant_pair(cls, **kwargs) -> "ClassicalOscParams":
        """Identical oscillators (f1 = f2): m2 = m1 and k2 = k1 = 10."""
        base = dict(m2=10.0 / (2 * np.pi) ** 2, k2=10.0)
        base.update(kwargs)
        return cls(**base)


@dataclass(frozen=True)
class OscTrajectory:
    times: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    params: ClassicalOscParams = field(repr=False, default=None)

    def fourier(self):
        """One-sided DFT magnitudes of (x1, x2): returns (freqs, |X1|, |X2|)."""
        n = len(self.times)
        dt = self.times[1] - self.times[0]
        freqs = np.fft.rfftfreq(n, dt)
        return freqs, np.abs(np.fft.rfft(self.x1)), np.abs(np.fft.rfft(self.x2))

    def energy(self) -> np.ndarray:
        """Total mechanical energy, valid for static coupling (kappa_m = 0)."""
        p = self.params
        k = p.kappa0
        return (
            0.5 * p.m1 * self.v1**2 + 0.5 * p.m2 * self.v2**2
            + 0.5 * p.k1 * self.x1**2 + 0.5 * p.k2 * self.x2**2
            + 0.5 * k * (self.x1 - self.x2) ** 2
        )

    def envelope(self, which: int = 2) -> np.ndarray:
        """Instantaneous amplitude sqrt(x^2 + (v/w)^2) of oscillator 1 or 2."""
        p = self.params
        if which == 1:
            w = 2 * np.pi * p.f1
            return np.sqrt(self.x1**2 + (self.v1 / w) ** 2)
        w = 2 * np.pi * p.f2
        return np.sqrt(self.x2**2 + (self.v2 / w) ** 2)


def normal_mode_frequencies(p: ClassicalOscParams) -> tuple[float, float]:
    """Eigenfrequencies (in ordinary units) of the statically coupled pair."""
    k_mat = np.array([
        [(p.k1 + p.kappa0) / p.m1, -p.kappa0 / p.m1],
        [-p.kappa0 / p.m2, (p.k2 + p.kappa0) / p.m2],
    ])
    w2 = np.linalg.eigvals(k_mat).real
    w2.sort()
    return float(np.sqrt(w2[0]) / (2 * np.pi)), float(np.sqrt(w2[1]) / (2 * np.pi))


def classical_oscillators(p: ClassicalOscParams, t_span: float,
                          dt: float | None = None) -> OscTrajectory:
    """Fixed-step RK4 integration of the coupled-oscillator equations.

    ``dt`` defaults to 1/(40 f_max); values above 1/(20 f_max) are rejected
    so the fastest oscillation stays resolved.
    """
    f_max = max(p.f1, p.f2, p.f_m, p.f_d)
    if dt is None:
        dt = 1.0 / (40.0 * f_max)
    elif dt > 1.0 / (20.0 * f_max):
        raise ValueError(
            f"dt = {dt:.4g} does not resolve the fastest frequency {f_max:.4g}"
        )
    nsteps = int(np.ceil(t_span / dt))
    times = np.arange(nsteps + 1) * dt

    two_pi = 2 * np.pi

    def rhs(t, y):
        x1, v1, x2, v2 = y
        kappa = p.kappa0 + p.kappa_m * np.cos(two_pi * p.f_m * t)
        drive = p.a_d * np.cos(two_pi * p.f_d * t)
        a1 = (-(p.k1 + kappa) * x1 + kappa * x2 + drive) / p.m1
        a2 = (-(p.k2 + kappa) * x2 + kappa * x1) / p.m2
        return np.array([v1, a1, v2, a2])

    y = np.array(p.x0, dtype=float)
    out = np.empty((nsteps + 1, 4))
    out[0] = y
    for i in range(nsteps):
        t = times[i]
        k1 = rhs(t, y)
        k2 = rhs(t + dt / 2, y + dt / 2 * k1)
        k3 = rhs(t + dt / 2, y + dt / 2 * k2)
        k4 = rhs(t + dt, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > 1e12:
            raise FloatingPointError(
                f"integration unstable at t = {t:.4g}; reduce dt or t_span"
            )
        out[i + 1] = y
    return OscTrajectory(times, out[:, 0], out[:, 2], out[:, 1], out[:, 3], p)
