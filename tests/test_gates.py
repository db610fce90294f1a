import functools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from scqsim import dynamics as dyn
from scqsim import gates
from scqsim import qcore as q
from scqsim.coupling import JCParams, TwoQubitParams


# ---------------------------------------------------------------------------
# Single-qubit rotations
# ---------------------------------------------------------------------------

def test_rabi_pi_pulse_is_x():
    u = q.rotation_operator("x", np.pi / 10.0 * 10.0)     # Omega_R * tau = pi
    assert q.global_phase_distance(u, q.SIGMA_X) < 1e-12


def test_rabi_two_pi_is_minus_identity():
    u = q.rotation_operator("x", np.pi * 2.0)
    assert np.allclose(u.entries, -np.eye(2), atol=1e-12)


def test_rabi_half_pi_about_y():
    u = q.rotation_operator("y", np.pi / 2 * 1.0)
    want = expm(-1j * (np.pi / 4) * q.SIGMA_Y.entries)
    assert np.max(np.abs(u.entries - want)) < 1e-14
    assert np.allclose(np.linalg.norm(u.entries, axis=0), 1.0)


def test_virtual_z_phase_shift():
    # shifting the drive phase by pi/2 turns an x rotation into a y rotation
    for theta in (np.pi, np.pi / 2, 0.73):
        rx = gates.xy_rotation(theta, 0.0)
        ry = gates.xy_rotation(theta, np.pi / 2)
        assert np.max(np.abs(rx.entries - q.rotation_operator("x", theta).entries)) < 1e-14
        assert np.max(np.abs(ry.entries - q.rotation_operator("y", theta).entries)) < 1e-14


def test_driven_frame_zero_amplitude():
    p = JCParams(5.0, 6.0, 0.1, n_max=3)
    _, omega_rabi = gates.driven_qubit_frame(
        p, gates.DriveParams(0.0, 4.99))
    assert omega_rabi == 0.0


def test_driven_frame_rabi_rate_formula():
    p = JCParams(5.0, 6.0, 0.1, n_max=3)
    _, omega_rabi = gates.driven_qubit_frame(
        p, gates.DriveParams(0.05, 4.99))
    assert omega_rabi == pytest.approx(-0.02)


def test_driven_frame_simulated_rabi_frequency():
    """Lindblad evolution of the Eq.-style generator shows population
    inversion oscillating at |Omega_R| to within 1%."""
    p = JCParams(5.0, 6.0, 0.1, n_max=3)
    chi = p.g**2 / p.detuning
    d = gates.DriveParams(0.05, 5.0 - chi)
    h_rot, omega_rabi = gates.driven_qubit_frame(p, d)
    nq = q.tensor(q.number_op(2), np.eye(p.n_max + 1)).entries
    period = 1.0 / abs(omega_rabi)
    times = np.linspace(0.0, 3 * period, 301)
    psi0 = q.ket(0, 2 * (p.n_max + 1))           # |0>_q |0>_r
    res = dyn.lindblad_evolve(h_rot.entries, psi0.to_density().entries, [],
                              times=times, dt=0.02, e_ops={"p1": nq})
    p1 = res.expectations["p1"]
    spec = np.abs(np.fft.rfft(p1 - np.mean(p1)))
    freqs = np.fft.rfftfreq(len(times), times[1] - times[0])
    f_peak = freqs[1 + np.argmax(spec[1:])]
    assert abs(f_peak - abs(omega_rabi)) / abs(omega_rabi) < 0.01
    assert np.max(p1) > 0.99   # full population inversion
    # the truncated Fock space stayed empty at the top (headroom check)
    from scqsim.coupling import fock_headroom
    fock_headroom(res.states[-1], p.n_max)


# ---------------------------------------------------------------------------
# iSWAP / bSWAP
# ---------------------------------------------------------------------------

def test_iswap_quarter_period():
    j = 2 * np.pi * 0.01
    tau = (np.pi / 2) / j                        # J tau = pi/2
    u = gates.coherent_exchange(j, tau)
    assert np.max(np.abs(u.entries - gates.ISWAP_GATE.entries)) < 1e-12


def test_iswap_full_period_sign():
    u = gates.coherent_exchange(np.pi / 3.0, 3.0)    # J tau = pi
    ket01 = q.basis_ket("01").amplitudes
    assert np.allclose(u.entries @ ket01, -ket01, atol=1e-12)


def test_iswap_matches_matrix_exponential():
    j, tau = 0.11, 3.7
    raise_q = np.array([[0, 0], [1, 0]], dtype=complex)
    exch = (np.kron(raise_q, raise_q.conj().T)
            + np.kron(raise_q.conj().T, raise_q))
    want = expm(-1j * j * tau * exch)
    assert np.max(np.abs(gates.coherent_exchange(j, tau).entries - want)) < 1e-12


def test_iswap_squared_on_exchange_block():
    u2 = (gates.ISWAP_GATE @ gates.ISWAP_GATE).entries
    block = u2[1:3, 1:3]
    assert np.allclose(block, -np.eye(2), atol=1e-12)


def test_iswap_parametric_half_rate():
    j_m, tau = 0.2, np.pi / 0.2                  # J_m tau = pi at J = J_m / 2
    u = gates.coherent_exchange(j_m / 2, tau)
    assert np.max(np.abs(u.entries - gates.ISWAP_GATE.entries)) < 1e-12


def test_bswap_matrix():
    j_m, tau = 0.15, np.pi / 0.15                # J_m tau = pi
    u = gates.bswap(j_m, tau)
    assert np.max(np.abs(u.entries - gates.BSWAP_GATE.entries)) < 1e-12
    assert np.allclose(gates.bswap(0.3, 0.0).entries, np.eye(4))


def test_exchange_gates_equal_written_out_matrices():
    """Byte for byte, signed zeros included, against the matrices written
    out entry by entry."""
    rng = np.random.default_rng(3)
    for j, tau in zip(rng.normal(0.0, 0.05, 200), rng.uniform(-100.0, 100.0, 200)):
        c, s = np.cos(j * tau), -1j * np.sin(j * tau)
        want = np.array([[1, 0, 0, 0], [0, c, s, 0], [0, s, c, 0], [0, 0, 0, 1]],
                         dtype=complex)
        assert gates.coherent_exchange(j, tau).entries.tobytes() == want.tobytes()
        c, s = np.cos(j * tau / 2), -1j * np.sin(j * tau / 2)
        want = np.array([[c, 0, 0, s], [0, 1, 0, 0], [0, 0, 1, 0], [s, 0, 0, c]],
                        dtype=complex)
        assert gates.bswap(j, tau).entries.tobytes() == want.tobytes()
        c, s = np.cos(np.sqrt(2) * j * tau), -1j * np.sin(np.sqrt(2) * j * tau)
        want = np.eye(6, dtype=complex)
        want[3, 3], want[3, 4], want[4, 3], want[4, 4] = c, s, s, c
        assert gates.cz_coherent_exchange(j, tau).entries.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# CZ
# ---------------------------------------------------------------------------

def test_cz_constant_zeta_schedule():
    zeta = 0.05
    report = gates.cz_adiabatic(lambda t: zeta, tau=np.pi / zeta)
    assert report.infidelity < 1e-12
    assert q.global_phase_distance(report.propagator, q.CZ_GATE) < 1e-10


def test_cz_adiabatic_calibration_error():
    with pytest.raises(ValueError, match="recalibrate"):
        gates.cz_adiabatic(lambda t: 0.05, tau=0.9 * np.pi / 0.05)


def test_cz_coherent_exchange_phase():
    j = 2 * np.pi * 0.005
    tau = np.pi / (np.sqrt(2) * j)
    u = gates.cz_coherent_exchange(j, tau).entries
    assert abs(u[3, 3] + 1.0) < 1e-10
    assert np.allclose(u[:3, :3], np.eye(3), atol=1e-12)
    assert abs(u[3, 4]) < 1e-10       # |02> population returns


def test_cz_coherent_exchange_zero_time():
    assert np.allclose(gates.cz_coherent_exchange(0.3, 0.0).entries, np.eye(6))


def test_exchange_matrix_elements_ladder_scaling():
    """sqrt(n1 n2) rule checked against the bosonic ladder algebra."""
    b = q.annihilation(4).entries
    j = 0.7
    h = j * (np.kron(b.conj().T, b) + np.kron(b, b.conj().T))

    def idx(n1, n2):
        return 4 * n1 + n2

    # |11> <-> |02>: sqrt(2) J
    assert h[idx(0, 2), idx(1, 1)] == pytest.approx(np.sqrt(2) * j)
    # |12> <-> |03>: b1 lowers 1->0, b2^dag raises 2->3: sqrt(1*3) J
    assert h[idx(0, 3), idx(1, 2)] == pytest.approx(np.sqrt(3) * j)
    # |22> <-> |13>: sqrt(2*3) J
    assert h[idx(1, 3), idx(2, 2)] == pytest.approx(np.sqrt(6) * j)


def test_zeta_grows_toward_anticrossing():
    w1, a1, a2, jc = 5.0, -0.3, -0.3, 0.02
    zetas = []
    for w2 in (5.8, 5.6, 5.45, 5.35):   # anticrossing at w2 = w1 - a2 = 5.3
        h = gates.two_transmon_hamiltonian(w1, w2, a1, a2, jc)
        zetas.append(abs(gates.zz_rate_two_transmon(h)))
    assert all(b > a for a, b in zip(zetas, zetas[1:]))


def test_cz_smooth_ramp_beats_square():
    w1, a1, a2, jc = 5.0, -0.3, -0.3, 0.02
    tau, ramp = 60.0, 12.0
    w_idle, w_gate = 5.8, 5.42

    def square(t):
        return w_gate

    def smooth(t):
        if t < ramp:
            s = 0.5 * (1 - np.cos(np.pi * t / ramp))
        elif t > tau - ramp:
            s = 0.5 * (1 - np.cos(np.pi * (tau - t) / ramp))
        else:
            s = 1.0
        return w_idle + (w_gate - w_idle) * s

    hard = gates.cz_adiabatic_simulate(w1, square, a1, a2, jc, tau, dt=0.005)
    soft = gates.cz_adiabatic_simulate(w1, smooth, a1, a2, jc, tau, dt=0.005)
    assert soft["leakage"] < 0.2 * hard["leakage"]
    assert soft["max_02_population"] < hard["max_02_population"]


def _cf4_loop(exp_step, w1, bias, a1, a2, jc, tau, dt):
    """Oracle: the full 9x9 product of ceil(tau / dt) fourth-order
    commutator-free steps, exp(-ih(b1 H1 + b2 H2)) exp(-ih(b2 H1 + b1 H2))
    with H at the Gauss nodes 1/2 -+ sqrt(3)/6 of each step and
    b = (3 -+ 2 sqrt(3))/12, each factor formed as ``exp_step(H, h)`` =
    exp(-ihH); the running max of |<02|U|11>|^2 is read after every factor."""
    nsteps = int(np.ceil(tau / dt))
    sub = tau / nsteps
    c1, c2 = 0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6
    b1, b2 = (3 - 2 * np.sqrt(3)) / 12, (3 + 2 * np.sqrt(3)) / 12
    u = np.eye(9, dtype=complex)
    max_02 = 0.0
    for i in range(nsteps):
        h1, h2 = (q.to_angular(gates.two_transmon_hamiltonian(
            w1, bias((i + c) * sub), a1, a2, jc).entries) for c in (c1, c2))
        for h in (b2 * h1 + b1 * h2, b1 * h1 + b2 * h2):
            u = exp_step(h, sub) @ u
            max_02 = max(max_02, abs(u[2, 4]) ** 2)
    return u, max_02


def test_cz_monitor_equals_running_column_loop():
    """max_02_population from the kernel's block mat-vecs equals the running
    |<02|U_t|11>|^2 of a per-factor product of full 9x9 CF4 factors (oracle),
    over 4,000 steps (many chunks of every excitation block)."""
    w1, a1, a2, jc, tau, dt = 5.0, -0.3, -0.3, 0.02, 20.0, 0.005

    def bias(t):
        return 5.8 - 0.38 * np.sin(np.pi * t / tau) ** 2

    res = gates.cz_adiabatic_simulate(w1, bias, a1, a2, jc, tau, dt=dt)
    u, max_02 = _cf4_loop(lambda h, s: q.expm_hermitian(h, -1j * s),
                          w1, bias, a1, a2, jc, tau, dt)
    assert abs(res["max_02_population"] - max_02) < 1e-12
    assert np.max(np.abs(res["propagator"].entries - u)) < 1e-12


def test_cz_simulate_matches_looped_reference():
    """H(omega_q2 = 0) + omega_q2 n_2 agrees with rebuilding H at every node."""
    w1, a1, a2, jc, tau, dt = 5.0, -0.3, -0.3, 0.02, 10.0, 0.005

    def bias(t):
        return 5.8 - 0.38 * np.sin(np.pi * t / tau) ** 2

    res = gates.cz_adiabatic_simulate(w1, bias, a1, a2, jc, tau, dt=dt)
    u, max_02 = _cf4_loop(lambda h, s: expm(-1j * s * h), w1, bias, a1, a2, jc, tau, dt)
    assert np.max(np.abs(res["propagator"].entries - u)) < 1e-10
    assert abs(res["max_02_population"] - max_02) < 1e-10
    assert abs(res["leakage"] - abs(u[2, 4]) ** 2) < 1e-10
    d = np.angle(np.diag(u)[[0, 1, 3, 4]])
    cond = np.angle(np.exp(1j * (d[3] - d[2] - d[1] + d[0])))
    assert abs(res["conditional_phase"] - cond) < 1e-10


def test_cz_simulate_memory_bound():
    """Memory stays flat in the step count: once warm, a 3,000-step run
    (6,000 rows) peaks under 1 MB of traced allocations (about 0.8 MB at
    chunks of 2^12 entries, 0.46 MB at 2^11).  Chunks of 2^15 entries take
    it to about 4 MB."""
    def bias(t):
        return 5.8 - 0.38 * np.sin(np.pi * t / 60.0) ** 2

    gates.cz_adiabatic_simulate(5.0, bias, -0.3, -0.3, 0.02, 60.0)
    tracemalloc.start()
    try:
        gates.cz_adiabatic_simulate(5.0, bias, -0.3, -0.3, 0.02, 60.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def _excursion(tau, w_gate=5.42, w_idle=5.8):
    ramp = tau / 4

    def bias(t):
        if t < ramp:
            s = 0.5 * (1 - np.cos(np.pi * t / ramp))
        elif t > tau - ramp:
            s = 0.5 * (1 - np.cos(np.pi * (tau - t) / ramp))
        else:
            s = 1.0
        return w_idle + (w_gate - w_idle) * s

    return bias


# the benchmark's three cosine-ramped excursions and the sine bias above
CZ_CASES = {f"excursion_{tau:g}": (_excursion(tau), tau) for tau in (10.0, 15.0, 20.0)}
CZ_CASES["sine_10"] = (lambda t: 5.8 - 0.38 * np.sin(np.pi * t / 10.0) ** 2, 10.0)


@functools.cache
def _cz_run(case, dt=None):
    bias, tau = CZ_CASES[case]
    kw = {} if dt is None else {"dt": dt}
    return gates.cz_adiabatic_simulate(5.0, bias, -0.3, -0.3, 0.02, tau, **kw)


@pytest.mark.parametrize("case", CZ_CASES)
def test_cz_default_step_is_converged(case):
    """The default dt = 0.02 run agrees with a dt = 1e-4 run."""
    res, fine = _cz_run(case), _cz_run(case, 1e-4)
    assert np.max(np.abs(res["propagator"].entries - fine["propagator"].entries)) < 1e-9
    assert abs(res["conditional_phase"] - fine["conditional_phase"]) < 1e-10
    assert res["max_02_population"] == pytest.approx(fine["max_02_population"], rel=1e-5)


@pytest.mark.parametrize("case", CZ_CASES)
def test_cz_step_is_fourth_order(case):
    """Halving dt from 0.05 to 0.025 cuts the propagator error against the
    dt = 1e-4 run about 16-fold (a second-order step: 4-fold)."""
    fine = _cz_run(case, 1e-4)["propagator"].entries
    err = [np.max(np.abs(_cz_run(case, dt)["propagator"].entries - fine))
           for dt in (0.05, 0.025)]
    assert err[0] > 10 * err[1]


# ---------------------------------------------------------------------------
# Cross resonance
# ---------------------------------------------------------------------------

def test_cr_half_pi_matrix():
    u = gates.cr_propagator(np.pi / 2).entries
    want = np.array([
        [1, -1j, 0, 0],
        [-1j, 1, 0, 0],
        [0, 0, 1, 1j],
        [0, 0, 1j, 1],
    ]) / np.sqrt(2)
    assert np.max(np.abs(u - want)) < 1e-12


def test_cr_gate_report():
    qq = TwoQubitParams(5.0, 5.5, 0.01, alpha_1=-0.3)
    p = gates.CRParams(qq, epsilon_q=0.05)
    omega_cr = 0.05 * 0.01 / (-0.5)
    assert p.omega_cr == pytest.approx(omega_cr)
    tau = (np.pi / 2) / abs(2 * np.pi * omega_cr)
    rep = gates.cr_gate(p, tau)
    # |Omega_CR| tau = pi/2 but Omega_CR < 0: the rotation runs backwards,
    # still a perfectly valid CR(-pi/2); check the +pi/2 case explicitly
    qq2 = TwoQubitParams(6.0, 5.5, 0.01, alpha_1=-0.3)
    p2 = gates.CRParams(qq2, epsilon_q=0.05)
    tau2 = (np.pi / 2) / (2 * np.pi * p2.omega_cr)
    rep2 = gates.cr_gate(p2, tau2)
    assert rep2.infidelity < 1e-12
    assert rep.infidelity <= 1.0


def test_cr_requires_dispersive_coupling():
    with pytest.raises(Exception, match="Delta_qq"):
        gates.CRParams(TwoQubitParams(5.0, 5.05, 0.01), epsilon_q=0.05)


def test_cr_three_level_limits():
    j, eps, delta = 0.01, 0.05, -0.5
    omega_cr = eps * j / delta
    # alpha -> infinity: ideal two-level, pure ZX at Omega_CR
    big = gates.cr_effective_3level(
        gates.CRParams(TwoQubitParams(5.0, 5.5, j, alpha_1=1e12), eps))
    assert abs(big["ix"]) < 1e-9
    assert abs(big["zx"] - omega_cr) < 1e-9
    # alpha -> 0: bosonic control, only the single-qubit drive survives
    small = gates.cr_effective_3level(
        gates.CRParams(TwoQubitParams(5.0, 5.5, j, alpha_1=0.0), eps))
    assert small["zx"] == 0.0
    assert small["ix"] == pytest.approx(omega_cr)


def test_cr_pole_error():
    p = gates.CRParams(TwoQubitParams(5.0, 5.5, 0.01, alpha_1=0.5), 0.05)
    with pytest.raises(ZeroDivisionError, match="pole"):
        gates.cr_effective_3level(p)


# ---------------------------------------------------------------------------
# Fidelity and identities
# ---------------------------------------------------------------------------

def test_infidelity_zero_for_identical():
    u = q.rotation_operator("x", 0.7)
    assert gates.gate_infidelity(u, u) == 0.0


def test_infidelity_global_phase_immune():
    u = q.rotation_operator("y", 1.1)
    assert gates.gate_infidelity(
        q.Operator(np.exp(1j * 0.3) * u.entries), u) < 1e-14


def test_infidelity_orthogonal_gates():
    assert gates.gate_infidelity(q.SIGMA_X, q.identity(2)) == pytest.approx(1.0)


def test_infidelity_dim_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        gates.gate_infidelity(np.eye(2), np.eye(4))


def test_all_constructors_unitary():
    mats = [
        q.rotation_operator("x", 0.3 * 1.7).entries,
        gates.xy_rotation(0.9, 0.4).entries,
        gates.coherent_exchange(0.21, 2.2).entries,
        gates.bswap(0.13, 1.1).entries,
        gates.cz_coherent_exchange(0.08, 3.0).entries,
        gates.cr_propagator(0.77).entries,
    ]
    for m in mats:
        assert np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))) < 1e-10


def test_cnot_from_cz():
    lhs = q.tensor(q.identity(2), q.H_GATE) @ q.CZ_GATE @ q.tensor(
        q.identity(2), q.H_GATE)
    assert np.max(np.abs(lhs.entries - q.CNOT_GATE.entries)) < 1e-10


def test_cnot_from_cr():
    pre = q.tensor(q.rotation_operator("z", -np.pi / 2),
                   q.rotation_operator("x", -np.pi / 2))
    combined = pre @ gates.cr_propagator(np.pi / 2)
    assert q.global_phase_distance(combined, q.CNOT_GATE) < 1e-10


def test_gate_report_validation():
    with pytest.raises(ValueError, match="infidelity"):
        gates.GateReport(q.identity(2), q.identity(2), 1.5)


def test_cz_parametric_half_rate():
    j_m = 2 * np.pi * 0.01
    tau = np.pi / (np.sqrt(2) * j_m / 2)
    u = gates.cz_coherent_exchange(j_m / 2, tau).entries
    assert abs(u[3, 3] + 1.0) < 1e-10
    assert np.allclose(u[:3, :3], np.eye(3), atol=1e-12)
