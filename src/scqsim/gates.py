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
    _cf4_rows,
    annihilation,
    number_op,
    pauli,
    piecewise_propagator,
    rotation_operator,
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
    """External drive on the resonator: amplitude and frequency in GHz."""

    amplitude: float
    frequency: float


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

def xy_rotation(theta: float, phase: float) -> Operator:
    """Rotation by theta about the equatorial axis at angle ``phase``:
    R_z(phase) R_x(theta) R_z(-phase).

    phase = 0 is an x rotation; shifting every subsequent drive phase by
    pi/2 turns x rotations into y rotations exactly (the virtual-Z trick,
    McKay et al., PRA 96, 022330 (2017)): a frame change, not a new pulse.
    """
    return (rotation_operator("z", phase) @ rotation_operator("x", theta)
            @ rotation_operator("z", -phase))


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

def _exchange(dim: int, i: int, j: int, angle: float) -> Operator:
    """exp(-i angle (|i><j| + |j><i|)) on ``dim`` levels: the identity with
    cos(angle) at (i, i) and (j, j) and -i sin(angle) at (i, j) and (j, i)."""
    u = np.eye(dim, dtype=complex)
    u[i, i] = u[j, j] = np.cos(angle)
    u[i, j] = u[j, i] = -1j * np.sin(angle)
    return Operator(u, unitary=True)


def coherent_exchange(j: float, tau: float) -> Operator:
    """Propagator of the resonant exchange J (s+ s- + s- s+), angle J tau.

    J tau = pi/2 implements the iSWAP gate.  A coupling modulated at the
    difference frequency (parametric iSWAP) contributes at half weight:
    its rate is J = J_m / 2, so J_m tau = pi implements the iSWAP.
    """
    return _exchange(4, 1, 2, j * tau)


def bswap(j_m: float, tau: float) -> Operator:
    """Parametric |00> <-> |11> exchange; J_m tau = pi implements bSWAP."""
    return _exchange(4, 0, 3, j_m * tau / 2)


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


def cz_adiabatic(zeta, tau: float) -> GateReport:
    """CZ by accumulating the ZZ phase integral of a zeta(t) schedule.

    ``zeta`` is a callable t -> rad/ns, sampled at 4001 points over
    [0, tau]; zeta = omega_10 + omega_01 - omega_11 is the effective ZZ
    rate.  The single-qubit phases are assumed absorbed into the local
    frames (virtual Z), leaving U = diag(1, 1, 1, e^{i integral}).
    A schedule whose integral misses pi by more than 0.01 rad raises.
    """
    ts = np.linspace(0.0, tau, 4001)
    theta = float(np.trapezoid([float(zeta(t)) for t in ts], ts))
    if abs(abs(theta) - np.pi) > 0.01:
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
    <11|U|11> = -1 with the computational block otherwise untouched.  A
    coupling modulated at the |11>-|02> transition frequency (parametric
    CZ) contributes at half weight, as for the parametric iSWAP: J = J_m / 2,
    and sqrt(2) (J_m / 2) tau = pi implements the CZ.
    """
    return _exchange(6, 3, 4, np.sqrt(2) * j * tau)


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
    dt: float = 0.02,
) -> dict:
    """Time evolution of the two-transmon model under a flux-bias excursion.

    The run takes ceil(tau / dt) equal fourth-order commutator-free steps
    (:func:`~scqsim.qcore._cf4_rows`): ``bias_fn(t)`` returns omega_q2(t)
    in GHz and is sampled at the two Gauss nodes of each step, and each
    step is two half-length rows of
    :func:`~scqsim.qcore.piecewise_propagator`, whose tree product is the
    propagator; H conserves the excitation number, so each row's step is
    made per excitation block, by a shifted Taylor polynomial.  Starting
    from |11>, the run tracks the |02> population (the adiabaticity monitor,
    read after every half-step row: the states inside the three-level block
    of |11>, |02> and |20> come from a down-sweep of each chunk's product
    tree) and reports the conditional phase
    theta_11 - theta_10 - theta_01 + theta_00 accumulated relative to the
    single-qubit frames.

    Returns a dict with 'conditional_phase', 'leakage' (final |02>
    population), 'max_02_population', and 'adiabatic' (monitor vs the
    1e-3 threshold).
    """
    nsteps = max(int(np.ceil(tau / dt)), 1)
    sub = tau / nsteps
    # H is linear in omega_q2: H(omega_q2 = 0) + omega_q2 n_2
    h_fixed = two_transmon_hamiltonian(omega_q1, 0.0, alpha_1, alpha_2, j).entries
    n_2 = tensor(np.eye(3), number_op(3)).entries
    omega_q2, widths = _cf4_rows(
        lambda c: [[bias_fn((i + c) * sub) for i in range(nsteps)]], np.full(nsteps, sub))
    idx11, idx02 = _bare_index(1, 1), _bare_index(0, 2)
    u, peak = piecewise_propagator(to_angular(h_fixed), [to_angular(n_2)], omega_q2,
                                   widths, watch=idx11)
    max_02 = float(peak[idx02])
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
        "adiabatic": max_02 < 1e-3,
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
