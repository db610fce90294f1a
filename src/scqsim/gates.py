"""Analytic and numerical gate constructions with fidelity evaluation.

Rotation-angle arguments (Omega_R, J, Omega_CR, zeta) are angular rates in
rad/ns so that products like ``Omega_R * tau`` are radians; parameter
objects coming from :mod:`scqsim.coupling` stay in GHz and are converted
where a generator is built.  Two-qubit matrices use the computational
ordering |00>, |01>, |10>, |11> (control qubit most significant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coupling import DispersiveLimitError, JCParams, TwoQubitParams
from .qcore import (
    CZ_GATE,
    Operator,
    _as_matrix,
    annihilation,
    number_op,
    pauli,
    rotation_operator,
    step_unitaries,
    tensor,
    to_angular,
)

ISWAP_GATE = Operator(
    [[1, 0, 0, 0], [0, 0, -1j, 0], [0, -1j, 0, 0], [0, 0, 0, 1]], unitary=True
)
BSWAP_GATE = Operator(
    [[0, 0, 0, -1j], [0, 1, 0, 0], [0, 0, 1, 0], [-1j, 0, 0, 0]], unitary=True
)


@dataclass(frozen=True)
class DriveParams:
    """External drive: amplitude and frequency in GHz, duration in ns."""

    amplitude: float
    frequency: float
    phase: float = 0.0
    duration: float = 1.0

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("drive duration must be > 0")


@dataclass(frozen=True)
class CRParams:
    """Cross-resonance drive on qubit 1 (control) addressing qubit 2.

    Requires the dispersive condition |Delta_qq| > 10 J.
    """

    qubits: TwoQubitParams
    epsilon_q: float

    def __post_init__(self):
        if abs(self.qubits.delta_qq) <= 10 * self.qubits.j:
            raise DispersiveLimitError(
                f"|Delta_qq| = {abs(self.qubits.delta_qq):.4g} must exceed "
                f"10 J = {10 * self.qubits.j:.4g}"
            )

    @property
    def omega_cr(self) -> float:
        """Omega_CR = epsilon_q J / Delta_qq (same units as the inputs)."""
        return self.epsilon_q * self.qubits.j / self.qubits.delta_qq


@dataclass(frozen=True)
class GateReport:
    propagator: Operator
    target: Operator
    infidelity: float

    def __post_init__(self):
        if not -1e-12 <= self.infidelity <= 1 + 1e-9:
            raise ValueError(f"infidelity {self.infidelity!r} outside [0, 1]")


# ---------------------------------------------------------------------------
# Single-qubit gates
# ---------------------------------------------------------------------------

def rabi_gate(omega_rabi: float, tau: float, axis: str = "x") -> Operator:
    """Resonantly driven rotation: exp(-i Omega_R tau sigma_axis / 2).

    Omega_R tau = pi gives the X (or Y) gate up to global phase.
    """
    return rotation_operator(axis, omega_rabi * tau)


def xy_rotation(theta: float, phase: float) -> Operator:
    """Rotation by theta about the equatorial axis at angle ``phase``.

    phase = 0 is an x rotation; shifting every subsequent drive phase by
    pi/2 turns x rotations into y rotations exactly (the virtual-Z trick).
    """
    axis = np.cos(phase) * pauli("x").entries + np.sin(phase) * pauli("y").entries
    return Operator(
        np.cos(theta / 2) * np.eye(2) - 1j * np.sin(theta / 2) * axis, unitary=True
    )


def driven_qubit_frame(p: JCParams, d: DriveParams):
    """Dispersive-frame generator of a driven qubit-resonator system.

    Returns ``(h_rot, omega_rabi)``: the static rotating-frame Hamiltonian
    (rad/ns, qubit x resonator ordering, ground-referenced) at drive
    frequency ``d.frequency``, and the Rabi rate
    Omega_R = -4 epsilon_r g / Delta_qr in GHz.

    At omega_d = omega_q - chi the qubit part reduces to Omega_R sigma_x/2
    plus the residual photon-number terms.
    """
    if not p.is_dispersive:
        raise DispersiveLimitError("driven_qubit_frame requires the dispersive limit")
    chi = p.g**2 / p.detuning
    omega_rabi = -4.0 * d.amplitude * p.g / p.detuning
    nr = p.n_max + 1
    a = annihilation(nr).entries
    n_r = a.conj().T @ a
    eye_r = np.eye(nr)
    eye_q = np.eye(2)
    n_q = number_op(2).entries
    sx = pauli("x").entries

    h_ghz = (
        (p.omega_r - d.frequency + chi) * tensor(eye_q, n_r).entries
        + d.amplitude * tensor(eye_q, a + a.conj().T).entries
        + (p.omega_q - chi - d.frequency) * tensor(n_q, eye_r).entries
        - 2.0 * chi * tensor(n_q, n_r).entries
        + 0.5 * omega_rabi * tensor(sx, eye_r).entries
    )
    return Operator(to_angular(h_ghz), hermitian=True), float(omega_rabi)


# ---------------------------------------------------------------------------
# iSWAP / bSWAP
# ---------------------------------------------------------------------------

def coherent_exchange(j: float, tau: float) -> Operator:
    """Propagator of the resonant exchange J (s+ s- + s- s+), angle J tau.

    J tau = pi/2 implements the iSWAP gate.
    """
    c, s = np.cos(j * tau), -1j * np.sin(j * tau)
    return Operator(
        [[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, 1]], unitary=True
    )


iswap = coherent_exchange


def iswap_parametric(j_m: float, tau: float) -> Operator:
    """Parametrically activated exchange at the difference frequency.

    The modulated coupling contributes at half weight, so the effective
    exchange rate is J_m / 2 and J_m tau = pi implements the iSWAP.
    """
    return coherent_exchange(j_m / 2, tau)


def bswap(j_m: float, tau: float) -> Operator:
    """Parametric |00> <-> |11> exchange; J_m tau = pi implements bSWAP."""
    c, s = np.cos(j_m * tau / 2), -1j * np.sin(j_m * tau / 2)
    return Operator(
        [[c, 0, 0, s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, c]], unitary=True
    )


# ---------------------------------------------------------------------------
# CZ
# ---------------------------------------------------------------------------

def cz_phase_propagator(theta_01: float, theta_10: float, theta_11: float) -> Operator:
    """diag(1, e^{i th01}, e^{i th10}, e^{i th11}) phase-accumulation form."""
    return Operator(
        np.diag([1.0, np.exp(1j * theta_01), np.exp(1j * theta_10),
                 np.exp(1j * theta_11)]),
        unitary=True,
    )


def cz_adiabatic(zeta, tau: float, nsteps: int = 4001, check: bool = True) -> GateReport:
    """CZ by accumulating the ZZ phase integral of a zeta(t) schedule.

    ``zeta`` is either a callable t -> rad/ns or an array of samples over
    [0, tau]; zeta = omega_10 + omega_01 - omega_11 is the effective ZZ
    rate.  The single-qubit phases are assumed absorbed into the local
    frames (virtual Z), leaving U = diag(1, 1, 1, e^{i integral}).
    A schedule whose integral misses pi by more than 0.01 rad raises unless
    ``check=False``.
    """
    if callable(zeta):
        ts = np.linspace(0.0, tau, nsteps)
        samples = np.array([float(zeta(t)) for t in ts])
    else:
        samples = np.asarray(zeta, dtype=float)
        ts = np.linspace(0.0, tau, len(samples))
    theta = float(np.trapezoid(samples, ts))
    if check and abs(abs(theta) - np.pi) > 0.01:
        raise ValueError(
            f"accumulated ZZ phase {theta:.6f} rad misses pi by "
            f"{abs(abs(theta) - np.pi):.4f} rad: recalibrate the schedule"
        )
    u = cz_phase_propagator(0.0, 0.0, theta)
    return GateReport(u, CZ_GATE, gate_infidelity(u, CZ_GATE))


def cz_coherent_exchange(j: float, tau: float) -> Operator:
    """CZ via resonant |11> <-> |02> exchange, on the 6-level basis
    [|00>, |01>, |10>, |11>, |02>, |20>].

    The |11>-|02> matrix element is sqrt(2) J, so sqrt(2) J tau = pi gives
    <11|U|11> = -1 with the computational block otherwise untouched.
    """
    c = np.cos(np.sqrt(2) * j * tau)
    s = -1j * np.sin(np.sqrt(2) * j * tau)
    u = np.eye(6, dtype=complex)
    u[3, 3] = c
    u[3, 4] = s
    u[4, 3] = s
    u[4, 4] = c
    return Operator(u, unitary=True)


def cz_parametric(j_m: float, tau: float) -> Operator:
    """CZ via a coupling modulated at the |11>-|02> transition frequency.

    The modulated exchange contributes at half weight (as for the
    parametric iSWAP), so the effective |11>-|02> rate is J_m/2 and
    sqrt(2) (J_m/2) tau = pi implements the CZ.
    """
    return cz_coherent_exchange(j_m / 2, tau)


# ---------------------------------------------------------------------------
# Two-transmon numeric model (3 levels each)
# ---------------------------------------------------------------------------

def two_transmon_hamiltonian(
    omega_q1: float,
    omega_q2: float,
    alpha_1: float,
    alpha_2: float,
    j: float,
) -> Operator:
    """9-dim two-transmon Hamiltonian in GHz: Duffing qubits + exchange.

    H = sum_i [w_i n_i + (alpha_i/2) n_i (n_i - 1)] + J (b1^dag b2 + h.c.)
    with bosonic sqrt(n) matrix elements, basis |n1 n2>, n_i in {0, 1, 2}.
    """
    b = annihilation(3).entries
    n = b.conj().T @ b
    eye = np.eye(3)
    duff = lambda w, a: w * n + 0.5 * a * (n @ n - n)
    h = (
        tensor(duff(omega_q1, alpha_1), eye).entries
        + tensor(eye, duff(omega_q2, alpha_2)).entries
        + j * (tensor(b.conj().T, b).entries + tensor(b, b.conj().T).entries)
    )
    return Operator(h, hermitian=True)


def _bare_index(n1: int, n2: int) -> int:
    return 3 * n1 + n2


def dressed_levels_two_transmon(h: Operator) -> dict:
    """Dressed energies keyed by the bare label of maximal overlap."""
    evals, vecs = np.linalg.eigh(h.entries)
    out = {}
    for label in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)]:
        idx = _bare_index(*label)
        k = int(np.argmax(np.abs(vecs[idx, :]) ** 2))
        out[label] = float(evals[k])
    return out


def zz_rate_two_transmon(h: Operator) -> float:
    """zeta = omega_10 + omega_01 - omega_11 from the dressed spectrum (GHz)."""
    lv = dressed_levels_two_transmon(h)
    e00 = lv[(0, 0)]
    return (lv[(1, 0)] - e00) + (lv[(0, 1)] - e00) - (lv[(1, 1)] - e00)


def cz_adiabatic_simulate(
    omega_q1: float,
    bias_fn,
    alpha_1: float,
    alpha_2: float,
    j: float,
    tau: float,
    dt: float = 0.005,
    leakage_threshold: float = 1e-3,
) -> dict:
    """Time evolution of the two-transmon model under a flux-bias excursion.

    ``bias_fn(t)`` returns omega_q2(t) in GHz.  Starting from |11>, the run
    tracks the instantaneous |02> population (the adiabaticity monitor) and
    reports the conditional phase theta_11 - theta_10 - theta_01 + theta_00
    accumulated relative to the single-qubit frames.

    Returns a dict with 'conditional_phase', 'leakage' (final |02>
    population), 'max_02_population', and 'adiabatic' (monitor vs the
    1e-3 threshold).
    """
    nsteps = max(int(np.ceil(tau / dt)), 1)
    sub = tau / nsteps
    # H is linear in omega_q2: H(omega_q2 = 0) + omega_q2 n_2
    h_fixed = two_transmon_hamiltonian(omega_q1, 0.0, alpha_1, alpha_2, j).entries
    n_2 = tensor(np.eye(3), number_op(3)).entries
    omega_q2 = [bias_fn((i + 0.5) * sub) for i in range(nsteps)]
    u = np.eye(9, dtype=complex)
    idx11, idx02 = _bare_index(1, 1), _bare_index(0, 2)
    max_02 = 0.0
    for step, _, _ in step_unitaries(to_angular(h_fixed), [to_angular(n_2)],
                                     [omega_q2], np.full(nsteps, sub)):
        u = step @ u
        max_02 = max(max_02, float(abs(u[idx02, idx11]) ** 2))
    phases = {
        lbl: np.angle(u[_bare_index(*lbl), _bare_index(*lbl)])
        for lbl in [(0, 0), (0, 1), (1, 0), (1, 1)]
    }
    cond = phases[(1, 1)] - phases[(1, 0)] - phases[(0, 1)] + phases[(0, 0)]
    cond = float(np.angle(np.exp(1j * cond)))
    leak = float(abs(u[idx02, idx11]) ** 2)
    return {
        "conditional_phase": cond,
        "leakage": leak,
        "max_02_population": max_02,
        "adiabatic": max_02 < leakage_threshold,
        "propagator": Operator(u),
    }


# ---------------------------------------------------------------------------
# Cross resonance
# ---------------------------------------------------------------------------

def cr_propagator(angle: float) -> Operator:
    """Cross-resonance propagator exp(-i (angle/2) Z x X).

    The target qubit rotates by +angle about x for control |0> and by
    -angle for control |1>.  angle = pi/2 gives the standard pi/2 CR gate
    with 1/sqrt(2) entries, the one two single-qubit rotations away from
    CNOT (the half-angle convention is the one consistent with that
    printed matrix and circuit identity).
    """
    c, s = np.cos(angle / 2), np.sin(angle / 2)
    return Operator(
        [
            [c, -1j * s, 0, 0],
            [-1j * s, c, 0, 0],
            [0, 0, c, 1j * s],
            [0, 0, 1j * s, c],
        ],
        unitary=True,
    )


def cr_gate(p: CRParams, tau: float) -> GateReport:
    """Two-level cross-resonance propagator at angle Omega_CR tau.

    ``p.omega_cr`` is in GHz here; the rotation angle uses its angular
    value.  The target is the pi/2 CR gate.
    """
    angle = to_angular(p.omega_cr) * tau
    u = cr_propagator(angle)
    target = cr_propagator(np.pi / 2)
    return GateReport(u, target, gate_infidelity(u, target))


def cr_effective_3level(p: CRParams) -> dict:
    """IX and ZX drive coefficients once the control's third level counts.

    ix = epsilon_q J / (Delta_qq + alpha_1),
    zx = alpha_1 Omega_CR / (Delta_qq + alpha_1).
    alpha_1 -> infinity recovers the pure ZX drive; alpha_1 -> 0 leaves only
    the single-qubit IX term.
    """
    alpha_1 = p.qubits.alpha_1
    if alpha_1 is None:
        raise ValueError("CRParams.qubits.alpha_1 is required for the 3-level model")
    delta = p.qubits.delta_qq
    denom = delta + alpha_1
    scale = max(abs(delta), abs(alpha_1), 1e-9)
    if abs(denom) < 1e-9 * scale:
        raise ZeroDivisionError(
            "Delta_qq + alpha_1 vanishes: the 3-level CR expansion has a pole"
        )
    return {
        "ix": float(p.epsilon_q * p.qubits.j / denom),
        "zx": float(alpha_1 * p.omega_cr / denom),
    }


# ---------------------------------------------------------------------------
# Fidelity
# ---------------------------------------------------------------------------

def gate_infidelity(u, u_target) -> float:
    """1 - |tr(U_target^dag U)|^2 / d^2.

    The d^2 normalization (not part of the bare trace formula) pins perfect
    gates to 0 and typical random unitaries near 1, and it makes the value
    immune to global phase.
    """
    m, t = _as_matrix(u), _as_matrix(u_target)
    if m.shape != t.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {t.shape}")
    d = m.shape[0]
    overlap = abs(np.trace(t.conj().T @ m)) ** 2 / d**2
    return float(max(1.0 - overlap, 0.0))
